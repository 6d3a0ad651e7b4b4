"""Score normalization, rankings, report assembly, and convergence studies.

The report's schema (:class:`SensitivityReport`, :class:`SubspaceSummary`,
:class:`ConvergenceTable`, ``METHOD_NAMES``, ``SUBSPACE_METHODS``) lives in
:mod:`sensyn.output`, which loads no numpy; this module fills it from the
estimators.
"""

from __future__ import annotations

import numpy as np

from .dgsm import dgsm_from_gradients
from .errors import DegenerateSpectrumError, InputDomainError
from .linalg import normalized_cumsum, select_m
from .linalg import sym_eig  # noqa: F401  (bench/test_counts.py looks it up here)
from .models import Model
from .output import (METHOD_NAMES, ConvergenceTable, SensitivityReport,
                     SubspaceSummary)
from .randkit import RngStream
from .subspace import (DesignReading, DesignSlopes, _slope_window, estimate_c_gas,
                       psd_spectrum, scores, slope_vectors)
from .variance import PickFreeze, prefix_upper
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
    checked before any row is drawn; ``m1`` defaults to n / m2, refused
    when m2 does not divide n.  ``slope_window`` defaults to the
    model's: 0 for a differentiable model, ``DEFAULT_SLOPE_WINDOW``
    otherwise; the report records the window used with ``gas``, and None
    without it.

    With ``sobol`` selected, the methods share one pick-freeze design on
    substream 1 of the seed's stream, in the layout of every other design
    (:class:`~sensyn.variance.PickFreeze`), and read it by the one rule of
    :class:`~sensyn.subspace.DesignReading`, which picks the model's
    quotient consumer, gradients and lower estimator: sigma2 and both
    Sobol' indices, the gradients of ``dgsm`` and ``as`` and, with ``gas``,
    ``m1 == n`` and ``m2 == 1``, the slope matrix.  Owen's third point and
    its noise take the design's own substreams 3 and 4, redrawn slope
    partners substream 3 of the seed's stream and forward differences its
    substream 2.  Without ``sobol``, or with another m1 or m2, the slope
    matrix draws its own samples on substream 3
    (:func:`~sensyn.subspace.estimate_c_gas`), and without ``sobol`` the
    gradients draw theirs on substream 2.

    A noise-free multilinear model's report costs n*(d+1) rows, plus one
    per short step and the probe's: example1 at n = 10,000 and seed 0 costs
    110,000 + 196 + 80 = 110,276, where Owen's third point took 220,196,
    redrawn slope partners 278,044 and forward differences 377,848.  Any
    other model's costs 2n*(d+1) + n*d, plus one row per redrawn slope
    partner (none at a differentiable model's default window of 0): this
    takes example4 at n = 10,000 from 283,023 model rows, when each method
    drew its own points, to 140,000, and example1 with noise 1 from 430,000
    to 320,000.
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
    if m2 < 1 or m1 is not None and m1 < 1:
        raise InputDomainError("sample sizes m1 and m2 must be at least 1")
    if m1 is None:
        if n % m2:
            raise InputDomainError(f"m1 defaults to n / m2, but m2 = {m2} does not "
                                   f"divide n = {n}; give m1")
        m1 = n // m2
    slope_window = _slope_window(model, slope_window) if "gas" in methods else None
    root = RngStream(seed)
    fields: dict = {}
    subspaces: dict = {}
    sobol = "sobol" in methods
    reading = DesignReading(model, n, PickFreeze(model, n, root.substream(1)) if sobol else None,
                            h=h, slope_rng=root.substream(3), gradient_rng=root.substream(2),
                            gas=sobol and "gas" in methods and m1 == n and m2 == 1,
                            gradients="dgsm" in methods or "as" in methods,
                            lower=True, slope_window=slope_window)
    if sobol:
        fields.update(sigma2_hat=reading.sigma2, sobol_lower=reading.lower,
                      sobol_upper=reading.upper)
    if "dgsm" in methods:
        v = dgsm_from_gradients(reading.gradients)
        fields.update(dgsm_raw=v, dgsm_normalized=normalize(v))
    if "as" in methods:
        subspaces["as"] = _decompose("AS", reading.c_as, model, n, threshold, m_override)
    c_gas = reading.c_gas
    reading = None  # the design's arrays go before the slope matrix draws its own

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


def _decompose(kind: str, matrix: np.ndarray, model: Model, n: int,
               threshold: float, m_override: int | None) -> SubspaceSummary:
    """The report's summary of an AS or GAS matrix, by the one spectrum rule
    of both kinds (:func:`~sensyn.subspace.psd_spectrum`)."""
    if not np.any(matrix):
        raise DegenerateSpectrumError(
            f"{kind} matrix of model {model.label!r} is all zero at n={n}: "
            f"every sampled {'gradient' if kind == 'AS' else 'slope'} vanished; "
            f"use a larger n (--n) or drop the {kind.lower()!r} method")
    spec = psd_spectrum(matrix)
    m_sel = select_m(spec, threshold) if m_override is None else m_override
    sel, full = scores(spec, m_sel), scores(spec, spec.dim)
    return SubspaceSummary(spec.eigenvalues, normalized_cumsum(spec),
                           spec.eigenvectors[:, 0], m_sel, sel, full,
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
    scores are read off the same design by its quotient consumer
    (:class:`DesignSlopes`, on the noise-free outputs, under the partner
    redraw on substream 5 of the seed's stream, since no gradient is read):
    n_max*(d+1) rows per seed for both tables, plus one per redrawn
    partner.  Alone, ``gas_scores`` draws the slope sample of
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
