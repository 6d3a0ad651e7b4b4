"""Score normalization, rankings, report assembly, and convergence studies.

The report's schema (:class:`SensitivityReport`, :class:`SubspaceSummary`,
:class:`ConvergenceTable`, ``METHOD_NAMES``, ``SUBSPACE_METHODS``) lives in
:mod:`sensyn.output`, which loads no numpy; this module fills it from the
estimators.
"""

from __future__ import annotations

import numpy as np

from .dgsm import (DesignGradients, dgsm_from_gradients, gradient_matrix,
                   noise_free_multilinear)
from .errors import DegenerateSpectrumError, InputDomainError
from .linalg import normalized_cumsum, select_m, sym_eig
from .models import Model
from .output import (METHOD_NAMES, ConvergenceTable, SensitivityReport,
                     SubspaceSummary)
from .randkit import RngStream
from .subspace import (SubspaceResult, DesignSlopes, _slope_window,
                       c_as_from_gradients, estimate_c_gas, psd_spectrum,
                       slope_vectors)
from .variance import (PickFreeze, SobolEstimate, lower_from_gradients,
                       prefix_upper, sobol_from_design, upper_from_design)
from .variance import upper_sobol  # noqa: F401  (bench/test_counts.py looks it up here)


def normalize(scores) -> np.ndarray | None:
    """Scores divided by their sum; ``None`` when the sum is not positive."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise InputDomainError("scores must be finite")
    total = scores.sum()
    if total <= 0.0:
        return None
    return scores / total


def rank(scores) -> np.ndarray:
    """1-based input indices in descending score order, ties by lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise InputDomainError("scores must be finite")
    return np.argsort(-scores, kind="stable") + 1


def build_report(model: Model, *, seed: int, methods=METHOD_NAMES,
                 n: int = 10_000, m1: int | None = None, m2: int = 1,
                 h: float = 1e-3, threshold: float = 0.9,
                 m_override: int | None = None,
                 slope_window: float | None = None) -> SensitivityReport:
    """Run the selected methods with a fixed stream layout and assemble the
    report; identical arguments give identical reports.  ``m_override``,
    ``threshold``, ``m1``, ``m2`` and, with ``gas``, ``slope_window`` are
    checked before any row is drawn.  ``slope_window`` defaults to the
    model's: 0 for a differentiable model, ``DEFAULT_SLOPE_WINDOW``
    otherwise; the report records the window used with ``gas``, and None
    without it.

    With ``sobol`` selected, the methods share one pick-freeze design on
    substream 1 of the seed's stream, in the layout of every other design
    (:class:`~sensyn.variance.PickFreeze`): base points z with f(z) and one
    freeze column f(v_i, z_-i) per input.  sigma2 and the upper indices come
    from the design alone.

    A noise-free multilinear model reads its gradients off the design
    (:class:`~sensyn.dgsm.DesignGradients`): each quotient is the exact
    partial derivative, and only a pair closer than ``h`` costs one
    forward-difference row.  The gradients are read whenever ``sobol`` is
    selected, since its lower indices are their means scaled by each input's
    variance (:func:`~sensyn.variance.lower_from_gradients`), and they serve
    ``dgsm`` and ``as`` too.  With ``gas``, ``m1 == n`` and ``m2 == 1`` its
    slope matrix is their outer-product matrix, the AS matrix, and the slope
    window is not read.  Before any of this, the design gradients probe the
    multilinear promise on min(n, 8) rows per input.  Such a report costs
    n*(d+1) rows, plus one per short step and the probe's: example1 at
    n = 10,000 and seed 0 costs 110,000 + 196 + 80 = 110,276, where Owen's
    third point took 220,196, redrawn slope partners 278,044 and forward
    differences 377,848.

    Any other model's lower indices take the design as two of their three
    points and draw the third, and its noise, on the design's own
    substreams 3 and 4 (:func:`~sensyn.variance.sobol_from_design`), and
    its gradients are forward differences from the design's z and f(z),
    n*d rows.  With ``gas``, ``m1 == n`` and ``m2 == 1``, its slope matrix
    keeps each design pair (z_i, v_i) that clears the slope window and
    redraws the partner of the others on substream 3
    (:class:`~sensyn.subspace.DesignSlopes`); at a differentiable model's
    default window of 0 no partner is redrawn.  It reads the design's
    noise-free outputs, so a stochastic model's slope matrix is that of its
    noise-free part, while every other estimate reads the noisy outputs.
    This takes example4 at n = 10,000 from 283,023 model rows, when each
    method drew its own points, to 140,000, and example1 with noise 1 from
    430,000 to 320,000.  Without ``sobol``, or with another m1 or m2, the
    slope matrix draws its own samples on substream 3
    (:func:`~sensyn.subspace.estimate_c_gas`) and the gradients theirs on
    substream 2.
    """
    methods = tuple(methods)
    unknown = set(methods) - set(METHOD_NAMES)
    if unknown:
        raise InputDomainError(f"unknown methods {sorted(unknown)}")
    if not methods:
        raise InputDomainError("at least one method is required")
    if m_override is not None and not 1 <= m_override <= model.d:
        raise InputDomainError(f"m must lie in 1..{model.d}")
    if not 0.0 <= threshold < 1.0:
        raise InputDomainError("threshold must lie in [0, 1)")
    if m1 is None:
        m1 = n
    if m1 < 1 or m2 < 1:
        raise InputDomainError("sample sizes m1 and m2 must be at least 1")
    slope_window = _slope_window(model, slope_window) if "gas" in methods else None
    root = RngStream(seed)
    fields: dict = {}
    subspaces: dict = {}
    gradients = "dgsm" in methods or "as" in methods
    base = c_gas = g = None

    if "sobol" in methods:
        share_gas = "gas" in methods and m1 == n and m2 == 1
        est, base, c_gas, g = _shared_design(model, n, h, root, share_gas,
                                             slope_window)
        fields.update(sigma2_hat=est.sigma2_hat, sobol_lower=est.lower,
                      sobol_upper=est.upper)

    if gradients:
        if g is None:
            g = gradient_matrix(model, n, h, root.substream(2), base=base)
        if "dgsm" in methods:
            v = dgsm_from_gradients(g)
            fields.update(dgsm_raw=v, dgsm_normalized=normalize(v))
        if "as" in methods:
            subspaces["as"] = _decompose("AS", c_as_from_gradients(g), model, n,
                                         threshold, m_override)
    base = g = None  # the design's arrays go before the slope matrix draws its own

    if "gas" in methods:
        if c_gas is None:
            c_gas = estimate_c_gas(model, m1, m2, root.substream(3),
                                   slope_window=slope_window)
        gas = subspaces["gas"] = _decompose("GAS", c_gas, model, m1 * m2,
                                            threshold, m_override)
        if model.reference_direction is not None:
            fields["u1_alignment"] = float(
                abs(gas.first_eigenvector @ model.reference_direction))

    return SensitivityReport(
        model_label=model.label, d=model.d, seed=seed, n=n, m1=m1, m2=m2, h=h,
        noise_scale=model.noise_scale, threshold=threshold, methods=methods,
        slope_window=slope_window, subspaces=subspaces,
        reference_direction=model.reference_direction, **fields)


def _shared_design(model: Model, n: int, h: float, root: RngStream,
                   share_gas: bool, slope_window: float | None):
    """Sobol' estimates from one design, its base points and outputs, the
    slope matrix read off its noise-free outputs when ``share_gas`` (else
    None), and the gradients of a noise-free multilinear model (else
    None)."""
    design = PickFreeze(model, n, root.substream(1))
    base = design.z, design.fz
    if noise_free_multilinear(model):  # every quotient is the exact derivative
        grads = DesignGradients(model, design.z, design.clean_fz, h)
        upper, sigma2 = upper_from_design(design, on_column=[grads])
        g = grads.matrix()
        est = SobolEstimate(lower=lower_from_gradients(g, model.marginals, sigma2),
                            upper=upper, sigma2_hat=sigma2, n=n, seed=design.rng.seed)
        return est, base, c_as_from_gradients(g) if share_gas else None, g
    slopes = (DesignSlopes(model, design.z, design.clean_fz, root.substream(3), slope_window)
              if share_gas else None)
    est = sobol_from_design(design, on_column=[] if slopes is None else [slopes])
    return est, base, None if slopes is None else slopes.matrix(), None


def _decompose(kind: str, matrix: np.ndarray, model: Model, n: int,
               threshold: float, m_override: int | None) -> SubspaceSummary:
    if not np.any(matrix):
        raise DegenerateSpectrumError(
            f"{kind} matrix of model {model.label!r} is all zero at n={n}: "
            f"every sampled {'gradient' if kind == 'AS' else 'slope'} vanished; "
            f"use a larger n (--n) or drop the {kind.lower()!r} method")
    spec = sym_eig(matrix) if kind == "AS" else psd_spectrum(matrix)
    m_sel = select_m(spec, threshold) if m_override is None else m_override
    return _summary(SubspaceResult(kind=kind, matrix=matrix, spectrum=spec,
                                   m_selected=m_sel))


def _summary(result: SubspaceResult) -> SubspaceSummary:
    """The report's summary of one AS or GAS result."""
    spec = result.spectrum
    sel = result.scores()
    full = result.scores(result.d)
    return SubspaceSummary(spec.eigenvalues, normalized_cumsum(spec),
                           spec.eigenvectors[:, 0], result.m_selected, sel, full,
                           normalize(sel), normalize(full))


def convergence_study(model: Model, method, sizes, n_seeds: int,
                      reference, *, base_seed: int = 0,
                      slope_window: float | None = None):
    """Fraction of seeds whose ranking matches a reference, per sample size.

    ``method`` is ``"upper_sobol"`` (pick-freeze indices) or ``"gas_scores"``
    (full-rank slope scores with one freeze vector per base point), and the
    study returns its table; a sequence of those names returns their tables
    in its order.  Both a full-permutation match and a softer top-3 match
    are recorded; tiny-sample rankings of near-tied inputs make the full
    match a harsh yardstick.

    Seed k draws one design at the largest size on substream k of
    ``RngStream(base_seed)``, and every size reduces the first ``size`` rows
    of it.  The rows are i.i.d., so each size's estimate has the law of one
    drawn at that size alone (the sizes' estimates of one seed are
    correlated), and a seed costs the rows of its largest size only.  With
    ``upper_sobol`` that design is a :class:`PickFreeze`, and each size's
    scores are those of ``upper_sobol(model, size, stream)`` on the same
    stream (:func:`prefix_upper`).  With ``gas_scores`` too, the slope
    scores are read off the same design (:class:`DesignSlopes`, on the
    noise-free outputs, its partner redraws on substream 5 of the seed's
    stream): n_max*(d+1) rows per seed for both tables, plus one per
    redrawn partner.  Alone, ``gas_scores`` draws the slope sample of
    :func:`slope_vectors`, which redraws a partner at no row's cost.
    Either way each size's scores are the diagonal of the slope matrix of
    its prefix's rows (:meth:`~sensyn.subspace.SlopeSample.diagonal`), at
    ``slope_window`` or by default the model's, which the table records.
    """
    methods = (method,) if isinstance(method, str) else tuple(method)
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise InputDomainError("need at least one sample size")
    if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise InputDomainError("sizes must be strictly increasing")
    if sizes[0] < 2:
        raise InputDomainError(f"every sample size must be at least 2, got {sizes[0]}")
    if n_seeds < 1:
        raise InputDomainError(f"need at least one seed, got {n_seeds}")
    if (not methods or len(set(methods)) < len(methods)
            or not set(methods) <= {"upper_sobol", "gas_scores"}):
        raise InputDomainError("method must be 'upper_sobol' or 'gas_scores'")
    reference = np.asarray(reference)
    if (reference.shape != (model.d,)
            or not np.array_equal(np.sort(reference), np.arange(1, model.d + 1))):
        raise InputDomainError("reference must be a permutation of 1..d")
    reference = reference.astype(int)

    gas = "gas_scores" in methods
    slope_window = _slope_window(model, slope_window) if gas else None
    root = RngStream(base_seed)
    values = {m: np.empty((n_seeds, len(sizes), model.d)) for m in methods}
    for seed_idx in range(n_seeds):
        cell = root.substream(seed_idx)
        if "upper_sobol" in methods:
            design = PickFreeze(model, sizes[-1], cell)
            # substreams 0-4 are the design's (PickFreeze)
            slopes = (DesignSlopes(model, design.z, design.clean_fz, cell.substream(5),
                                   slope_window) if gas else None)
            values["upper_sobol"][seed_idx] = prefix_upper(
                design, sizes, on_column=[slopes] if gas else [])
        else:
            slopes, = slope_vectors(model, sizes[-1], 1, cell, slope_window)
        if gas:
            for si, size in enumerate(sizes):
                values["gas_scores"][seed_idx, si] = slopes.diagonal(size)

    tables = [_convergence_table(model, m, sizes, n_seeds, reference, values[m],
                                 slope_window if m == "gas_scores" else None)
              for m in methods]
    return tables[0] if isinstance(method, str) else tables


def _convergence_table(model: Model, method: str, sizes: tuple, n_seeds: int,
                       reference: np.ndarray, values: np.ndarray,
                       slope_window: float | None) -> ConvergenceTable:
    """The table of one method's (n_seeds, len(sizes), d) scores."""
    ranks: dict = {}
    score_vectors: dict = {}
    full = np.zeros(len(sizes))
    top3 = np.zeros(len(sizes))
    k = min(3, model.d)
    for si, size in enumerate(sizes):
        for seed_idx in range(n_seeds):
            perm = rank(values[seed_idx, si])
            ranks[(size, seed_idx)] = perm
            score_vectors[(size, seed_idx)] = values[seed_idx, si]
            full[si] += float(np.array_equal(perm, reference))
            top3[si] += float(np.array_equal(perm[:k], reference[:k]))
    return ConvergenceTable(
        model_label=model.label, method=method, sizes=sizes, n_seeds=n_seeds,
        reference=reference, ranks=ranks, score_vectors=score_vectors,
        mean_scores=values.mean(axis=0),
        full_match_fraction=full / n_seeds, top3_match_fraction=top3 / n_seeds,
        slope_window=slope_window)
