"""Monte Carlo estimation of total variance and Sobol' sensitivity indices.

Upper indices use the pick-freeze form: one base sample plus one fresh
coordinate per input, so a full run costs n*(d+1) evaluations.  Lower
indices use a product-of-differences correlation estimator built from three
independent base points, which keeps the variance of small indices low; the
per-replicate cost is n*(2*d+2) evaluations.  For the evaluations of input i
both estimators overwrite column i of a base design in place and restore it
afterwards, instead of copying the design once per input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, ZeroVarianceError
from .models import Model, sample_inputs
from .randkit import RngStream

# substream roles within one estimator call
_BASE, _FREEZE, _NOISE, _SECOND, _THIRD = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class SobolEstimate:
    """Lower and upper Sobol' index estimates with their shared variance."""

    lower: np.ndarray
    upper: np.ndarray
    sigma2_hat: float
    n: int
    seed: int


def estimate_variance(model: Model, n: int, rng: RngStream) -> float:
    """Unbiased sample variance of ``n`` i.i.d. model evaluations.

    A zero return flags a constant model; ratio quantities downstream
    refuse to divide by it.
    """
    if n < 2:
        raise InputDomainError("variance estimation needs n >= 2")
    z = sample_inputs(model, n, rng.substream(_BASE))
    y = model.evaluate(z, rng=rng.substream(_NOISE).substream(0))
    return float(np.var(y, ddof=1))


def upper_sobol(model: Model, n: int, rng: RngStream,
                sigma2: float | None = None) -> np.ndarray:
    """Pick-freeze estimate of the upper (total-effect) Sobol' indices.

    For each input i the base point has coordinate i replaced by a fresh
    draw and the halved mean square difference is divided by the variance
    estimate (taken from the base evaluations unless supplied).  Estimates
    are nonnegative by construction and are not clipped from above.
    """
    if n < 2:
        raise InputDomainError("pick-freeze estimation needs n >= 2")
    z = sample_inputs(model, n, rng.substream(_BASE))
    noise = rng.substream(_NOISE)
    fz = model.evaluate(z, rng=noise.substream(0))
    if sigma2 is None:
        sigma2 = float(np.var(fz, ddof=1))
    if sigma2 <= 0.0:
        raise ZeroVarianceError("upper Sobol' indices undefined for a constant model")

    freeze = rng.substream(_FREEZE)
    out = np.empty(model.d)
    for i in range(model.d):
        zi = z[:, i].copy()
        z[:, i] = model.marginals[i].inv_cdf(freeze.substream(i).uniforms(n))
        fzi = model.evaluate(z, rng=noise.substream(i + 1))
        z[:, i] = zi
        out[i] = np.mean((fz - fzi) ** 2) / (2.0 * sigma2)
    return out


def lower_sobol(model: Model, n: int, rng: RngStream,
                sigma2: float | None = None) -> np.ndarray:
    """Correlation estimate of the lower (main-effect) Sobol' indices.

    With x, y, z three independent base points, the mean of

        (f(x) - f(y_i, x_-i)) * (f(x_i, z_-i) - f(z))

    is the main-effect variance of input i: both factors have zero mean and
    only the f(x)f(x_i, z_-i) and f(y_i, x_-i)f(z) pairs share a coordinate.
    Small negative estimates are Monte Carlo noise and are reported as-is.
    """
    if n < 2:
        raise InputDomainError("lower-index estimation needs n >= 2")
    x = sample_inputs(model, n, rng.substream(_BASE))
    z = sample_inputs(model, n, rng.substream(_SECOND))
    y = sample_inputs(model, n, rng.substream(_THIRD))
    noise = rng.substream(_NOISE)
    fx = model.evaluate(x, rng=noise.substream(0))
    fz = model.evaluate(z, rng=noise.substream(1))
    if sigma2 is None:
        sigma2 = float(np.var(fx, ddof=1))
    if sigma2 <= 0.0:
        raise ZeroVarianceError("lower Sobol' indices undefined for a constant model")

    out = np.empty(model.d)
    for i in range(model.d):
        xi, zi = x[:, i].copy(), z[:, i].copy()
        x[:, i] = y[:, i]
        z[:, i] = xi
        fxa = model.evaluate(x, rng=noise.substream(2 * i + 2))
        fza = model.evaluate(z, rng=noise.substream(2 * i + 3))
        x[:, i], z[:, i] = xi, zi
        out[i] = np.mean((fx - fxa) * (fza - fz)) / sigma2
    return out


def estimate_sobol(model: Model, n: int, rng: RngStream, seed: int | None = None) -> SobolEstimate:
    """Run the variance pass plus both index estimators on substreams of
    ``rng`` and bundle the results."""
    sigma2 = estimate_variance(model, n, rng.substream(10))
    if sigma2 <= 0.0:
        raise ZeroVarianceError("Sobol' indices undefined for a constant model")
    upper = upper_sobol(model, n, rng.substream(11), sigma2=sigma2)
    lower = lower_sobol(model, n, rng.substream(12), sigma2=sigma2)
    return SobolEstimate(lower=lower, upper=upper, sigma2_hat=sigma2, n=n,
                         seed=rng.seed if seed is None else seed)
