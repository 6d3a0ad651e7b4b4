"""Numerical verification of the bounds linking the sensitivity measures:

* slope-score bound on the unit cube: upper index <= (score_m + spill)/(2 var),
  where the spill term is the (m+1)-th eigenvalue for m < d;
* the bounded-model generalization on unbounded domains, with a symmetric
  central box of probability 1 - eps and a tail-truncation constant kappa;
* the quadratic-under-normal identity: var * upper index = slope score at
  m = d, exactly;
* derivative-measure bounds: the linear-model equality v_i/(12 var), the
  1/pi**2 unit-cube bound, its distribution-constant generalization, and
  the gradient-score variants.

:func:`applicable_checks` picks the checks whose hypotheses a model meets.
All checks of a run are pure functions of one set of ten independent
replicate batches (:func:`batch_statistics`).  Each batch draws one
pick-freeze design and reads every statistic the checks need from its rows:
sigma2 and the upper indices, the slope matrix (its first draws are the
design's pairs, read on their noise-free outputs), and the gradients (the
design's quotients for a noise-free multilinear model, else forward
differences from its base points).  The ten slope matrices are decomposed as one stack, in one
Jacobi pass, and so are the ten gradient matrices; a noise-free multilinear
model's slope matrices are its gradient matrices.  A check passes when the
slack ``rhs - lhs`` is no more negative than five combined batch-means
standard errors: with ten near-normal batch means the slack over its
standard error is approximately Student-t with 9 degrees of freedom
(Schmeiser 1982, "Batch size effects in the analysis of simulation
output"), a one-sided t-test with false-fail probability about 3.7e-4 per
input when the bound holds with equality.

The combined error ``sqrt(se_lhs**2 + se_rhs**2)`` is exact for independent
sides.  Here the two sides of a check share a batch's rows, and the error is
conservative exactly where their per-batch estimates correlate
non-negatively; ``scripts/calibrate_bounds.py`` measures that correlation
and each family's false-fail and detection rates.  sigma2 divides both
sides of every check (the quadratic identity scales the upper index back
by it), and the upper indices are normalized by the same batch's sigma2,
so no verdict depends on the variance estimate.  Checks share estimates,
so verdicts correlate across checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dgsm import (DesignGradients, dgsm_from_gradients, gradient_matrix,
                   noise_free_multilinear)
from .errors import InputDomainError, ModelOutputError
from .linalg import SpectralDecomposition, select_m, sym_eig
from .models import Model
from .randkit import Normal, RngStream, Uniform, cheeger_constant
from .subspace import (DesignSlopes, _slope_window, c_as_from_gradients,
                       psd_spectrum, scores)
from .variance import PickFreeze, upper_from_design
from .variance import upper_sobol  # noqa: F401  (bench/test_counts.py looks it up here)

N_BATCHES = 10
SE_MULTIPLE = 5.0


@dataclass(frozen=True)
class BoundCheck:
    """Two estimated sides of a bound with per-input verdicts.

    ``slack = rhs - lhs``; input i passes when ``slack[i] >= -tolerance[i]``
    with tolerance five combined batch-means standard errors of the two
    sides, which read the same batches (conservative where their per-batch
    estimates correlate non-negatively).  ``skipped_reason`` marks a check
    whose hypotheses the model does not meet.
    """

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: np.ndarray
    details: dict = field(default_factory=dict)
    skipped_reason: str | None = None

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> np.ndarray:
        return self.slack >= -self.tolerance

    @property
    def all_passed(self) -> bool:
        return self.skipped_reason is None and bool(np.all(self.passed))


@dataclass(frozen=True)
class BatchStatistics:
    """Per-batch estimates, one list entry per batch (``None``: not requested),
    and the slope window of ``c_gas``; the spectra of each kind are
    decomposed on first use, as one stack, and shared by every check."""

    model: Model
    n: int
    upper: list[np.ndarray]
    sigma2: list[float]
    c_gas: list[np.ndarray] | None = None
    dgsm: list[np.ndarray] | None = None
    c_as: list[np.ndarray] | None = None
    slope_window: float | None = None

    @cached_property
    def gas_spectra(self) -> list[SpectralDecomposition]:
        return psd_spectrum(np.stack(self.c_gas))

    @cached_property
    def as_spectra(self) -> list[SpectralDecomposition]:
        return sym_eig(np.stack(self.c_as))


def batch_statistics(model: Model, n: int, rng: RngStream, *, gas: bool = False,
                     gradients: bool = False, h: float = 1e-3,
                     slope_window: float | None = None) -> BatchStatistics:
    """Statistics of ``N_BATCHES`` replicate batches of size n.

    Batch b draws one :class:`~sensyn.variance.PickFreeze` design on
    substream 0 of ``rng.substream(100 + b)``; sigma2 is the variance of its
    f(z) and the upper indices reduce its freeze columns.  A noise-free
    multilinear model reads its gradients off the design
    (:class:`~sensyn.dgsm.DesignGradients`) whenever ``gas`` or
    ``gradients`` is asked for, and their outer-product matrix is both its
    gradient matrix and its slope matrix; the slope window is not read.  For
    any other model, ``gas`` keeps the design's pairs that clear the slope
    window (by default 0 for a differentiable model, so every pair, and
    ``DEFAULT_SLOPE_WINDOW`` otherwise) and redraws the partners of the
    others on substream 1, on the design's noise-free outputs, so a
    stochastic model's slope matrix is that of its noise-free part;
    ``gradients`` takes forward differences from the design's z and f(z),
    noise included, on substream 3.  A batch costs n*(d+1) rows, plus on a
    noise-free multilinear model one per design pair closer than h and the
    design gradients' probe of its promise, min(n, 8) rows per input, and
    on any other one per redrawn slope partner with ``gas`` (none at window
    0) and n*d with ``gradients``, so example4's ten batches of n = 1,000
    with both cost 90,000 rows.  Only vectors and d x d matrices outlive a
    batch.  A model with an ``output_range`` has every noise-free design
    output checked against it, at no row's cost, since
    :func:`gas_bound_general` takes its kappa from that range; an output
    outside it raises :class:`~sensyn.errors.ModelOutputError`.
    """
    slope_window = _slope_window(model, slope_window) if gas else None
    exact = noise_free_multilinear(model)

    def column_in_range(i, column, fv):
        _check_range(model, fv)

    upper, sigma2, c_gas, v, c_as = [], [], [], [], []
    for b in range(N_BATCHES):
        batch = rng.substream(100 + b)
        design = PickFreeze(model, n, batch.substream(0))
        _check_range(model, design.clean_fz)
        slopes = (DesignSlopes(model, design.z, design.clean_fz, batch.substream(1), slope_window)
                  if gas and not exact else None)
        grads = (DesignGradients(model, design.z, design.clean_fz, h)
                 if (gas or gradients) and exact else None)
        up, s2 = upper_from_design(
            design, on_column=[column_in_range, *(c for c in (slopes, grads) if c is not None)])
        upper.append(up)
        sigma2.append(s2)
        if slopes is not None:
            c_gas.append(slopes.matrix())
        if grads is not None or gradients:
            g = (gradient_matrix(model, n, h, batch.substream(3),
                                 base=(design.z, design.fz))
                 if grads is None else grads.matrix())
            v.append(dgsm_from_gradients(g))
            c_as.append(c_as_from_gradients(g))
    if exact:
        c_gas = c_as
    return BatchStatistics(model, n, upper, sigma2, c_gas if gas else None,
                           v if gradients else None, c_as if gradients else None,
                           slope_window)


def _check_range(model: Model, y: np.ndarray) -> None:
    """Refuse outputs outside the model's declared range, if it has one."""
    if model.output_range is None:
        return
    lo, hi = model.output_range
    bad = np.flatnonzero((y < lo) | (y > hi))
    if bad.size:
        raise ModelOutputError(
            f"model {model.label!r} returned {y[bad[0]]:.6g}, outside its declared "
            f"output range [{lo:g}, {hi:g}], at {bad.size} of {y.size} rows")


def _skipped(name: str, d: int, reason: str) -> BoundCheck:
    nan = np.full(d, np.nan)
    return BoundCheck(name=name, lhs=nan, rhs=nan, tolerance=nan,
                      skipped_reason=reason)


def _batch_stats(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and batch-means standard error across replicate batches."""
    arr = np.asarray(rows)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1) / math.sqrt(len(rows))


def _combined_tolerance(se_lhs: np.ndarray, se_rhs: np.ndarray) -> np.ndarray:
    return SE_MULTIPLE * np.sqrt(se_lhs**2 + se_rhs**2)


def _inequality(name: str, lhs_rows, rhs_rows, details: dict | None = None) -> BoundCheck:
    lhs, se_l = _batch_stats(lhs_rows)
    rhs, se_r = _batch_stats(rhs_rows)
    return BoundCheck(name=name, lhs=lhs, rhs=rhs, details=details or {},
                      tolerance=_combined_tolerance(se_l, se_r))


def _residual(sides: BoundCheck, details: dict | None = None) -> BoundCheck:
    """An equality as a check: both directions, ``|rhs - lhs|`` against 0."""
    residual = np.abs(sides.slack)
    return BoundCheck(name=sides.name, lhs=residual, rhs=np.zeros_like(residual),
                      tolerance=sides.tolerance, details=details or {})


def is_unit_cube(model: Model) -> bool:
    """Whether every marginal is Uniform(0, 1)."""
    return all(isinstance(m, Uniform) and m.lower == 0.0 and m.upper == 1.0
               for m in model.marginals)


def _spilled_scores(spec: SpectralDecomposition, m: int) -> np.ndarray:
    """Scores over the top m eigenpairs plus the spill ``lambda_{m+1}``."""
    num = scores(spec, m)
    return num + spec.eigenvalues[m] if m < spec.dim else num


def gas_bound_uniform(stats: BatchStatistics, m: int) -> BoundCheck:
    """Upper Sobol' indices against slope scores on the unit cube.

    lhs is the pick-freeze upper index, rhs is
    ``(score_m + [m < d] lambda_{m+1}) / (2 sigma2)``.
    """
    if not is_unit_cube(stats.model):
        raise InputDomainError("bound requires all marginals Uniform(0, 1)")
    rhs_rows = [_spilled_scores(spec, m) / (2.0 * s2)
                for spec, s2 in zip(stats.gas_spectra, stats.sigma2)]
    return _inequality(f"gas_bound_uniform(m={m})", stats.upper, rhs_rows,
                       {"m": m, "n": stats.n})


def gas_bound_general(stats: BatchStatistics, epsilon: float, m: int) -> BoundCheck:
    """Bounded-model slope-score bound on an unbounded product domain.

    A symmetric box (a', b') per dimension carries probability
    ``(1 - eps)**(1/d)`` each, so the full box carries 1 - eps; the excluded
    tails contribute the constant
    ``kappa = (2 eps - eps**2) / (b' - a')**2 * sup(f - f)**2``.
    """
    model = stats.model
    if not 0.0 < epsilon < 0.5:
        raise InputDomainError("epsilon must lie in (0, 0.5); the box degenerates beyond")
    if model.output_range is None:
        raise InputDomainError("bound requires a model with a declared output range")
    first = model.marginals[0]
    if not all(mar == first for mar in model.marginals):
        raise InputDomainError("bound requires identical marginals across inputs")
    if not isinstance(first, (Uniform, Normal)):
        raise InputDomainError("bound requires uniform or normal marginals")
    cover = (1.0 - epsilon) ** (1.0 / model.d)
    a_prime = float(first.inv_cdf((1.0 - cover) / 2.0))
    b_prime = float(first.inv_cdf((1.0 + cover) / 2.0))
    width2 = (b_prime - a_prime) ** 2
    lo, hi = model.output_range
    kappa = (2.0 * epsilon - epsilon**2) / width2 * (hi - lo) ** 2
    rhs_rows = [0.5 * width2 * (_spilled_scores(spec, m) + kappa) / s2
                for spec, s2 in zip(stats.gas_spectra, stats.sigma2)]
    return _inequality(f"gas_bound_general(m={m})", stats.upper, rhs_rows,
                       {"m": m, "n": stats.n, "epsilon": epsilon,
                        "a_prime": a_prime, "b_prime": b_prime, "kappa": kappa})


def quadratic_identity(stats: BatchStatistics) -> BoundCheck:
    """Equality of variance-scaled upper indices and slope scores at m = d
    for a quadratic under standard normal inputs.

    lhs and rhs are the two sides ``sigma2 * upper_i`` and ``score_i(d)``;
    the verdict demands agreement within five combined standard errors.  The
    gradient-score inequality slack ``alpha_i(d)/sigma2 - upper_i`` is
    reported in the details.
    """
    sides = _inequality("quadratic_identity",
                        [s2 * up for s2, up in zip(stats.sigma2, stats.upper)],
                        [np.diag(c) for c in stats.c_gas])
    as_slack, as_se = _batch_stats(
        [np.diag(c) / s2 - up for c, s2, up in zip(stats.c_as, stats.sigma2, stats.upper)])
    return _residual(sides, {"n": stats.n, "sigma2_times_upper": sides.lhs,
                             "gas_scores_full": sides.rhs,
                             "as_bound_slack": as_slack, "as_bound_slack_se": as_se})


def dgsm_bounds(stats: BatchStatistics, threshold: float = 0.9) -> list[BoundCheck]:
    """Derivative-measure bounds applicable to the model's marginals.

    Emits the linear-model equality, the unit-cube 1/pi**2 bound, the
    distribution-constant bound, and the gradient-score bound; checks whose
    hypotheses fail are returned with a ``skipped_reason``.
    """
    model = stats.model
    if not model.differentiable:
        reason = "model output is discontinuous; derivative bounds do not apply"
        return [_skipped(name, model.d, reason)
                for name in ("linear_dgsm_equality", "dgsm_bound_unit_cube",
                             "dgsm_bound_general", "as_score_bound_general")]
    unit_cube = is_unit_cube(model)
    unit_width = all(isinstance(mar, Uniform) and mar.scale == 1.0
                     for mar in model.marginals)

    v_rows = [v / s2 for v, s2 in zip(stats.dgsm, stats.sigma2)]
    alpha_rows = [_spilled_scores(spec, select_m(spec, threshold)) / s2
                  for spec, s2 in zip(stats.as_spectra, stats.sigma2)]
    dconst = np.array([cheeger_constant(mar) for mar in model.marginals])
    general = {"distribution_constants": dconst}

    checks = []
    if noise_free_multilinear(model) and unit_width:
        checks.append(_residual(_inequality("linear_dgsm_equality", stats.upper,
                                            [v / 12.0 for v in v_rows])))
    else:
        checks.append(_skipped("linear_dgsm_equality", model.d,
                               "model is not multilinear on unit-width intervals"))
    if unit_cube:
        checks.append(_inequality("dgsm_bound_unit_cube", stats.upper,
                                  [v / math.pi**2 for v in v_rows]))
    else:
        checks.append(_skipped("dgsm_bound_unit_cube", model.d,
                               "marginals are not Uniform(0, 1)"))
    checks.append(_inequality("dgsm_bound_general", stats.upper,
                              [dconst * v for v in v_rows], general))
    if unit_cube:
        checks.append(_inequality("as_score_bound_unit_cube", stats.upper,
                                  [a / math.pi**2 for a in alpha_rows]))
    else:
        checks.append(_inequality("as_score_bound_general", stats.upper,
                                  [dconst * a for a in alpha_rows], general))
    return checks


def needs_slope_matrix(model: Model) -> bool:
    """Whether :func:`applicable_checks` on ``model`` reads a slope matrix."""
    return (model.family == "quadratic_normal" or is_unit_cube(model)
            or model.output_range is not None)


def applicable_checks(stats: BatchStatistics, *, m: int | None, epsilon: float,
                      threshold: float) -> list[BoundCheck]:
    """The checks ``sensyn bounds`` reports, in order: the quadratic identity;
    on the unit cube the slope-score bound at m, or at 1 and d; with an
    output range the bounded-model bound at d; then :func:`dgsm_bounds`."""
    model = stats.model
    checks = [quadratic_identity(stats)] if model.family == "quadratic_normal" else []
    if is_unit_cube(model):
        ranks = dict.fromkeys((1, model.d)) if m is None else (m,)
        checks += [gas_bound_uniform(stats, rank) for rank in ranks]
    if model.output_range is not None:
        checks.append(gas_bound_general(stats, epsilon, model.d))
    return checks + dgsm_bounds(stats, threshold)
