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
from .subspace import (DEFAULT_SLOPE_WINDOW, SubspaceResult,
                       DesignSlopes, c_as_from_gradients, estimate_c_gas,
                       psd_spectrum, slope_vectors)
from .variance import PickFreeze, prefix_upper, sobol_from_design
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
                 slope_window: float = DEFAULT_SLOPE_WINDOW) -> SensitivityReport:
    """Run the selected methods with a fixed stream layout and assemble the
    report; identical arguments give identical reports.

    With ``sobol`` selected, the methods share one pick-freeze design on
    substream 1 of the seed's stream, in the layout of every other design
    (:class:`~sensyn.variance.PickFreeze`): base points z with f(z) and one
    freeze column f(v_i, z_-i) per input.  sigma2 and the upper indices come
    from the design alone, the lower indices take it as two of their three
    points and draw the third, and its noise, on the design's own
    substreams 3 and 4.  The gradients (``dgsm``, ``as``) of a noise-free
    multilinear model are the design's quotients
    (:class:`~sensyn.dgsm.DesignGradients`), at one forward-difference row
    per pair closer than ``h``; any other model's are forward differences
    from the design's z and f(z), n*d rows.  The slope matrix (``gas``)
    keeps each design pair (z_i, v_i) that clears the slope window and
    redraws the partner of the others, but only when ``m1 == n``,
    ``m2 == 1`` and the model is noise-free; a stochastic model needs its
    common-mode noise, so then, as without ``sobol``, the slope matrix
    draws its own samples on substream 3 and the gradients theirs on
    substream 2.  For example4 at n = 10,000 this takes the report from
    283,023 model rows to 140,000 plus one per redrawn partner.  For
    example1 at n = 10,000 the report costs n*(2d+2) = 220,000 rows, plus
    one per redrawn partner and one per short step: 278,044 at seed 0,
    where forward differences took 377,848.
    """
    methods = tuple(methods)
    unknown = set(methods) - set(METHOD_NAMES)
    if unknown:
        raise InputDomainError(f"unknown methods {sorted(unknown)}")
    if not methods:
        raise InputDomainError("at least one method is required")
    if m1 is None:
        m1 = n
    root = RngStream(seed)
    fields: dict = {}
    subspaces: dict = {}
    gradients = "dgsm" in methods or "as" in methods
    base = c_gas = g = None

    if "sobol" in methods:
        share_gas = ("gas" in methods and m1 == n and m2 == 1
                     and model.noise_scale == 0.0)
        design_h = h if gradients and noise_free_multilinear(model) else None
        est, base, c_gas, g = _shared_design(model, n, root, share_gas, design_h,
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
    base = None  # the design's arrays go before the slope matrix draws its own

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
        subspaces=subspaces, reference_direction=model.reference_direction,
        **fields)


def _shared_design(model: Model, n: int, root: RngStream, share_gas: bool,
                   design_h: float | None, slope_window: float):
    """Sobol' estimates, the design's base points and outputs, the slope
    matrix read off the same design when ``share_gas`` and its gradients
    (short step ``design_h``) when that is given, each None when not read."""
    design = PickFreeze(model, n, root.substream(1))
    slopes = (DesignSlopes(model, design.z, design.fz, root.substream(3), slope_window)
              if share_gas else None)
    grads = (DesignGradients(model, design.z, design.fz, design_h)
             if design_h is not None else None)
    est = sobol_from_design(design, on_column=[c for c in (slopes, grads) if c is not None])
    return (est, (design.z, design.fz), None if slopes is None else slopes.matrix(),
            None if grads is None else grads.matrix())


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


def convergence_study(model: Model, method: str, sizes, n_seeds: int,
                      reference, *, base_seed: int = 0,
                      slope_window: float = DEFAULT_SLOPE_WINDOW) -> ConvergenceTable:
    """Fraction of seeds whose ranking matches a reference, per sample size.

    ``method`` is ``"upper_sobol"`` (pick-freeze indices) or ``"gas_scores"``
    (full-rank slope scores with one freeze vector per base point).  Both a
    full-permutation match and a softer top-3 match are recorded; tiny-sample
    rankings of near-tied inputs make the full match a harsh yardstick.

    Seed k draws one design at the largest size on substream k of
    ``RngStream(base_seed)``, and every size reduces the first ``size`` rows
    of it.  The rows are i.i.d., so each size's estimate has the law of one
    drawn at that size alone (the sizes' estimates of one seed are
    correlated), and a seed costs the rows of its largest size only.  For
    ``upper_sobol`` that design is a :class:`PickFreeze`, and each size's
    scores are those of ``upper_sobol(model, size, stream)`` on the same
    stream (:func:`prefix_upper`); for ``gas_scores`` it is the slope
    sample of :func:`slope_vectors`, and each size's scores are the weighted
    mean of its prefix's squared slopes, the diagonal of the slope matrix of
    those rows (:meth:`~sensyn.subspace.SlopeSample.diagonal`).
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise InputDomainError("need at least one sample size")
    if any(s2 <= s1 for s1, s2 in zip(sizes, sizes[1:])):
        raise InputDomainError("sizes must be strictly increasing")
    if sizes[0] < 2:
        raise InputDomainError(f"every sample size must be at least 2, got {sizes[0]}")
    if n_seeds < 1:
        raise InputDomainError(f"need at least one seed, got {n_seeds}")
    if method not in ("upper_sobol", "gas_scores"):
        raise InputDomainError("method must be 'upper_sobol' or 'gas_scores'")
    reference = np.asarray(reference, dtype=int)
    if reference.shape != (model.d,):
        raise InputDomainError("reference must be a permutation of 1..d")

    root = RngStream(base_seed)
    values = np.empty((n_seeds, len(sizes), model.d))
    for seed_idx in range(n_seeds):
        cell = root.substream(seed_idx)
        if method == "upper_sobol":
            values[seed_idx] = prefix_upper(PickFreeze(model, sizes[-1], cell),
                                            sizes)
        else:
            sample, = slope_vectors(model, sizes[-1], 1, cell, slope_window)
            for si, size in enumerate(sizes):
                values[seed_idx, si] = sample.diagonal(size)

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
        full_match_fraction=full / n_seeds, top3_match_fraction=top3 / n_seeds)
