"""Numerical verification of the bounds linking the sensitivity measures.

Each check estimates the two sides of an inequality (or the two sides of an
equality) with ten independent replicate batches and passes when the slack
``rhs - lhs`` is no more negative than five combined batch-means standard
errors.  With ten batches of near-normal batch means, the slack over its
batch-means standard error is approximately Student-t with 9 degrees of
freedom (Schmeiser 1982, "Batch size effects in the analysis of simulation
output"), so the 5-SE rule is a one-sided t-test whose false-fail
probability per input is about 3.7e-4 when the bound holds with equality.
The checks are:

* slope-score bound on the unit cube: upper index <= (score_m + spill)/(2 var),
  where the spill term is the (m+1)-th eigenvalue for m < d;
* the bounded-model generalization on unbounded domains, with a symmetric
  central box of probability 1 - eps and a tail-truncation constant kappa;
* the quadratic-under-normal identity: var * upper index = slope score at
  m = d, exactly;
* derivative-measure bounds: the linear-model equality v_i/(12 var), the
  1/pi**2 unit-cube bound, its distribution-constant generalization, and
  the gradient-score variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dgsm import dgsm_from_gradients, gradient_matrix
from .errors import InputDomainError
from .linalg import select_m, sym_eig
from .models import Model, make_quadratic_normal, sample_inputs
from .randkit import Normal, RngStream, Uniform, cheeger_constant
from .subspace import (DEFAULT_SLOPE_WINDOW, c_as_from_gradients,
                       estimate_c_gas, scores)
from .variance import upper_sobol

N_BATCHES = 10
SE_MULTIPLE = 5.0


@dataclass(frozen=True)
class BoundCheck:
    """Two estimated sides of a bound with per-input verdicts.

    ``slack = rhs - lhs``; input i passes when ``slack[i] >= -tolerance[i]``
    with tolerance five combined standard errors.  ``skipped_reason`` marks a
    check whose hypotheses the model does not meet.
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


def _skipped(name: str, d: int, reason: str) -> BoundCheck:
    nan = np.full(d, np.nan)
    return BoundCheck(name=name, lhs=nan, rhs=nan, tolerance=nan,
                      skipped_reason=reason)


def _batch_stats(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and batch-means standard error across replicate batches."""
    arr = np.asarray(rows)
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(len(rows))
    return mean, se


def _combined_tolerance(se_lhs: np.ndarray, se_rhs: np.ndarray) -> np.ndarray:
    return SE_MULTIPLE * np.sqrt(se_lhs**2 + se_rhs**2)


def _is_unit_cube(model: Model) -> bool:
    return all(isinstance(m, Uniform) and m.lower == 0.0 and m.upper == 1.0
               for m in model.marginals)


def _batch_sigma2(model: Model, n: int, rng: RngStream) -> float:
    pts = sample_inputs(model, n, rng.substream(0))
    y = model.evaluate(pts, rng=rng.substream(1))
    return float(np.var(y, ddof=1))


def check_gas_bound_uniform(model: Model, m: int, n: int, rng: RngStream,
                            slope_window: float = DEFAULT_SLOPE_WINDOW) -> BoundCheck:
    """Upper Sobol' indices against slope scores on the unit cube.

    lhs is the pick-freeze upper index, rhs is
    ``(score_m + [m < d] lambda_{m+1}) / (2 sigma2)``.
    """
    if not _is_unit_cube(model):
        raise InputDomainError("bound requires all marginals Uniform(0, 1)")
    if not 1 <= m <= model.d:
        raise InputDomainError(f"m must lie in 1..{model.d}")
    lhs_rows, rhs_rows = [], []
    for b in range(N_BATCHES):
        batch = rng.substream(100 + b)
        sbar = upper_sobol(model, n, batch.substream(0))
        matrix = estimate_c_gas(model, n, 1, batch.substream(1),
                                slope_window=slope_window)
        spec = sym_eig(matrix)
        num = scores(spec, m)
        if m < model.d:
            num = num + spec.eigenvalues[m]
        sigma2 = _batch_sigma2(model, n, batch.substream(2))
        lhs_rows.append(sbar)
        rhs_rows.append(num / (2.0 * sigma2))
    lhs, se_l = _batch_stats(lhs_rows)
    rhs, se_r = _batch_stats(rhs_rows)
    return BoundCheck(name=f"gas_bound_uniform(m={m})", lhs=lhs, rhs=rhs,
                      tolerance=_combined_tolerance(se_l, se_r),
                      details={"m": m, "n": n})


def check_gas_bound_general(model: Model, epsilon: float, m: int, n: int,
                            rng: RngStream,
                            slope_window: float = DEFAULT_SLOPE_WINDOW) -> BoundCheck:
    """Bounded-model slope-score bound on an unbounded product domain.

    A symmetric box (a', b') per dimension carries probability
    ``(1 - eps)**(1/d)`` each, so the full box carries 1 - eps; the excluded
    tails contribute the constant
    ``kappa = (2 eps - eps**2) / (b' - a')**2 * sup(f - f)**2``.
    """
    if not 0.0 < epsilon < 0.5:
        raise InputDomainError("epsilon must lie in (0, 0.5); the box degenerates beyond")
    if model.output_range is None:
        raise InputDomainError("bound requires a model with a declared output range")
    if not 1 <= m <= model.d:
        raise InputDomainError(f"m must lie in 1..{model.d}")
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

    lhs_rows, rhs_rows = [], []
    for b in range(N_BATCHES):
        batch = rng.substream(200 + b)
        sbar = upper_sobol(model, n, batch.substream(0))
        matrix = estimate_c_gas(model, n, 1, batch.substream(1),
                                slope_window=slope_window)
        spec = sym_eig(matrix)
        num = scores(spec, m)
        if m < model.d:
            num = num + spec.eigenvalues[m]
        sigma2 = _batch_sigma2(model, n, batch.substream(2))
        lhs_rows.append(sbar)
        rhs_rows.append(0.5 * width2 * (num + kappa) / sigma2)
    lhs, se_l = _batch_stats(lhs_rows)
    rhs, se_r = _batch_stats(rhs_rows)
    return BoundCheck(name=f"gas_bound_general(m={m})", lhs=lhs, rhs=rhs,
                      tolerance=_combined_tolerance(se_l, se_r),
                      details={"m": m, "n": n, "epsilon": epsilon,
                               "a_prime": a_prime, "b_prime": b_prime,
                               "kappa": kappa})


def check_quadratic_identity(a_matrix, b, n: int, rng: RngStream,
                             slope_window: float = DEFAULT_SLOPE_WINDOW,
                             h: float = 1e-3) -> BoundCheck:
    """Equality of variance-scaled upper indices and slope scores at m = d
    for a quadratic under standard normal inputs.

    lhs and rhs are the two sides ``sigma2 * upper_i`` and ``score_i(d)``;
    the verdict demands agreement within five combined standard errors.  The
    gradient-score inequality slack ``alpha_i(d)/sigma2 - upper_i`` is
    reported in the details.
    """
    model = make_quadratic_normal(a_matrix, b)
    lhs_rows, rhs_rows, as_rows = [], [], []
    for k in range(N_BATCHES):
        batch = rng.substream(300 + k)
        sigma2 = _batch_sigma2(model, n, batch.substream(2))
        sbar = upper_sobol(model, n, batch.substream(0))
        matrix = estimate_c_gas(model, n, 1, batch.substream(1),
                                slope_window=slope_window)
        gamma_d = np.diag(matrix)
        alpha_d = np.diag(c_as_from_gradients(
            gradient_matrix(model, n, h, batch.substream(3))))
        lhs_rows.append(sigma2 * sbar)
        rhs_rows.append(gamma_d)
        as_rows.append(alpha_d / sigma2 - sbar)
    lhs, se_l = _batch_stats(lhs_rows)
    rhs, se_r = _batch_stats(rhs_rows)
    tol = _combined_tolerance(se_l, se_r)
    as_slack, as_se = _batch_stats(as_rows)
    # equality: both directions must hold within tolerance
    residual = np.abs(rhs - lhs)
    return BoundCheck(name="quadratic_identity", lhs=residual,
                      rhs=np.zeros_like(residual), tolerance=tol,
                      details={"n": n, "sigma2_times_upper": lhs,
                               "gas_scores_full": rhs,
                               "as_bound_slack": as_slack,
                               "as_bound_slack_se": as_se})


def check_dgsm_bounds(model: Model, n: int, h: float, rng: RngStream,
                      threshold: float = 0.9) -> list[BoundCheck]:
    """Derivative-measure bounds applicable to the model's marginals.

    Emits the linear-model equality, the unit-cube 1/pi**2 bound, the
    distribution-constant bound, and the gradient-score bound; checks whose
    hypotheses fail are returned with a ``skipped_reason``.
    """
    d = model.d
    if not model.differentiable:
        reason = "model output is discontinuous; derivative bounds do not apply"
        return [_skipped(name, d, reason)
                for name in ("linear_dgsm_equality", "dgsm_bound_unit_cube",
                             "dgsm_bound_general", "as_score_bound_general")]
    unit_cube = _is_unit_cube(model)
    unit_width = all(isinstance(mar, Uniform) and mar.scale == 1.0
                     for mar in model.marginals)

    lhs_rows, v_rows, alpha_rows = [], [], []
    for b in range(N_BATCHES):
        batch = rng.substream(400 + b)
        sbar = upper_sobol(model, n, batch.substream(0))
        g = gradient_matrix(model, n, h, batch.substream(1))
        v = dgsm_from_gradients(g)
        spec = sym_eig(c_as_from_gradients(g))
        m = select_m(spec, threshold)
        alpha = scores(spec, m)
        if m < d:
            alpha = alpha + spec.eigenvalues[m]
        sigma2 = _batch_sigma2(model, n, batch.substream(2))
        lhs_rows.append(sbar)
        v_rows.append(v / sigma2)
        alpha_rows.append(alpha / sigma2)
    sbar, se_s = _batch_stats(lhs_rows)
    v_over_var, se_v = _batch_stats(v_rows)
    alpha_over_var, se_a = _batch_stats(alpha_rows)

    checks = []

    if model.multilinear and model.noise_scale == 0.0 and unit_width:
        residual = np.abs(sbar - v_over_var / 12.0)
        checks.append(BoundCheck(
            name="linear_dgsm_equality", lhs=residual,
            rhs=np.zeros_like(residual),
            tolerance=_combined_tolerance(se_s, se_v / 12.0)))
    else:
        checks.append(_skipped("linear_dgsm_equality", d,
                               "model is not multilinear on unit-width intervals"))

    if unit_cube:
        checks.append(BoundCheck(
            name="dgsm_bound_unit_cube", lhs=sbar,
            rhs=v_over_var / math.pi**2,
            tolerance=_combined_tolerance(se_s, se_v / math.pi**2)))
    else:
        checks.append(_skipped("dgsm_bound_unit_cube", d,
                               "marginals are not Uniform(0, 1)"))

    dconst = np.array([cheeger_constant(mar) for mar in model.marginals])
    checks.append(BoundCheck(
        name="dgsm_bound_general", lhs=sbar, rhs=dconst * v_over_var,
        tolerance=_combined_tolerance(se_s, dconst * se_v),
        details={"distribution_constants": dconst}))

    if unit_cube:
        checks.append(BoundCheck(
            name="as_score_bound_unit_cube", lhs=sbar,
            rhs=alpha_over_var / math.pi**2,
            tolerance=_combined_tolerance(se_s, se_a / math.pi**2)))
    else:
        checks.append(BoundCheck(
            name="as_score_bound_general", lhs=sbar,
            rhs=dconst * alpha_over_var,
            tolerance=_combined_tolerance(se_s, dconst * se_a),
            details={"distribution_constants": dconst}))

    return checks
