"""Monte Carlo estimation of total variance and Sobol' sensitivity indices.

Both index estimators read a pick-freeze design (:class:`PickFreeze`): n
base points z with f(z) and, for each input i, a fresh coordinate v_i with
f(v_i, z_-i), n*(d+1) evaluations per replicate.  The upper indices and the
variance come from these alone.  The lower indices use a product-of-
differences correlation estimator over three independent points, which keeps
the variance of small indices low; two of the three points are the design's
z and v, so only a fresh third point and its d swapped columns are new, and
a replicate of both estimators costs n*(2*d+2) evaluations.  For the
evaluations of input i the estimators overwrite column i of a base design in
place and restore it afterwards, instead of copying the design once per
input, and they reduce the outputs one column at a time, so no (n, d) array
of outputs is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, ZeroVarianceError
from .models import Model, sample_inputs
from .randkit import RngStream

# substream roles within one design: base, freeze columns, noise, the lower
# estimator's third point, and the freeze columns of the three-point layout
_BASE, _FREEZE, _NOISE, _THIRD, _THREE_POINT_FREEZE = 0, 1, 2, 3, 4


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


class PickFreeze:
    """One pick-freeze design on ``rng``: base points ``z`` with ``fz`` =
    f(z), and per input i a fresh coordinate v_i whose output f(v_i, z_-i)
    :meth:`columns` evaluates when it is reached.

    Substreams of ``rng``: 0 the base, 2 the noise (child 0 for f(z)), and
    the freeze column of input i on child i of 1 with noise child i + 1.
    ``three_point`` leaves room for the third point of
    :func:`sobol_from_design`: the freeze columns draw on 4 instead, and
    column i takes noise child 2*i + 2, so that the third point's noise
    children are the odd ones.
    """

    def __init__(self, model: Model, n: int, rng: RngStream, *,
                 three_point: bool = False):
        if n < 2:
            raise InputDomainError("pick-freeze estimation needs n >= 2")
        self.model, self.n, self.rng = model, n, rng
        self.three_point = three_point
        self.z = sample_inputs(model, n, rng.substream(_BASE))
        self.noise = rng.substream(_NOISE)
        self.fz = model.evaluate(self.z, rng=self.noise.substream(0))

    def columns(self):
        """Yield ``(i, v_i, f(v_i, z_-i))`` for every input in turn.

        ``z`` holds v_i only while column i is evaluated, so it is the base
        again whenever a column is handed out; ``v_i`` is a fresh array the
        caller may keep or overwrite.
        """
        freeze = self.rng.substream(_THREE_POINT_FREEZE if self.three_point
                                    else _FREEZE)
        stride = 2 if self.three_point else 1
        z = self.z
        for i, dist in enumerate(self.model.marginals):
            v = dist.inv_cdf(freeze.substream(i).uniforms(self.n))
            zi = z[:, i].copy()
            z[:, i] = v
            fv = self.model.evaluate(z, rng=self.noise.substream(stride * (i + 1)))
            z[:, i] = zi
            yield i, v, fv


def _checked_variance(fz: np.ndarray, sigma2: float | None, what: str) -> float:
    if sigma2 is None:
        sigma2 = float(np.var(fz, ddof=1))
    if sigma2 <= 0.0:
        raise ZeroVarianceError(f"{what} undefined for a constant model")
    return sigma2


def _upper(fz: np.ndarray, fv: np.ndarray, sigma2: float) -> float:
    return np.mean((fz - fv) ** 2) / (2.0 * sigma2)


def upper_from_design(design: PickFreeze, sigma2: float | None = None,
                      on_column=None) -> tuple[np.ndarray, float]:
    """Upper indices of a design, and the variance that normalizes them
    (that of f(z) unless supplied).  ``on_column(i, v_i, f(v_i, z_-i))``,
    if given, sees every freeze column after its index is reduced."""
    sigma2 = _checked_variance(design.fz, sigma2, "upper Sobol' indices")
    out = np.empty(design.model.d)
    for i, v, fv in design.columns():
        out[i] = _upper(design.fz, fv, sigma2)
        if on_column is not None:
            on_column(i, v, fv)
    return out, sigma2


def upper_sobol(model: Model, n: int, rng: RngStream,
                sigma2: float | None = None) -> np.ndarray:
    """Pick-freeze estimate of the upper (total-effect) Sobol' indices.

    For each input i the base point has coordinate i replaced by a fresh
    draw and the halved mean square difference is divided by the variance
    estimate (taken from the base evaluations unless supplied).  Estimates
    are nonnegative by construction and are not clipped from above.
    """
    return upper_from_design(PickFreeze(model, n, rng), sigma2)[0]


def sobol_from_design(design: PickFreeze, sigma2: float | None = None,
                      seed: int | None = None, on_column=None) -> SobolEstimate:
    """Upper and lower indices, and the variance of f(z), from one design
    drawn with ``three_point=True``.

    The lower indices take x = z and y = v from the design and draw a fresh
    third point w on substream 3 of the design's stream.  The mean of

        (f(x) - f(y_i, x_-i)) * (f(x_i, w_-i) - f(w))

    is the main-effect variance of input i: both factors have zero mean and
    only the f(x)f(x_i, w_-i) and f(y_i, x_-i)f(w) pairs share a coordinate.
    The first factor is read off the design, so the estimator adds f(w) and
    the d columns f(x_i, w_-i), n*(d+1) evaluations (noise children 1 and
    2*i + 3).  Small negative estimates are Monte Carlo noise and are
    reported as-is.  ``on_column(i, v_i, f(v_i, z_-i))``, if given, sees
    every freeze column after its indices are reduced.
    """
    if not design.three_point:
        raise InputDomainError("the lower indices need a three-point design")
    model, n, x, fx = design.model, design.n, design.z, design.fz
    sigma2 = _checked_variance(fx, sigma2, "Sobol' indices")
    w = sample_inputs(model, n, design.rng.substream(_THIRD))
    fw = model.evaluate(w, rng=design.noise.substream(1))
    upper, lower = np.empty(model.d), np.empty(model.d)
    for i, v, fv in design.columns():
        upper[i] = _upper(fx, fv, sigma2)
        wi = w[:, i].copy()
        w[:, i] = x[:, i]
        fxw = model.evaluate(w, rng=design.noise.substream(2 * i + 3))
        w[:, i] = wi
        lower[i] = np.mean((fx - fv) * (fxw - fw)) / sigma2
        if on_column is not None:
            on_column(i, v, fv)
    return SobolEstimate(lower=lower, upper=upper, sigma2_hat=sigma2, n=n,
                         seed=design.rng.seed if seed is None else seed)


def lower_sobol(model: Model, n: int, rng: RngStream,
                sigma2: float | None = None) -> np.ndarray:
    """Correlation estimate of the lower (main-effect) Sobol' indices, from
    a pick-freeze design on ``rng`` and a fresh third point
    (:func:`sobol_from_design`)."""
    return sobol_from_design(PickFreeze(model, n, rng, three_point=True),
                             sigma2).lower


def estimate_sobol(model: Model, n: int, rng: RngStream, seed: int | None = None) -> SobolEstimate:
    """Both index estimators and the variance from one pick-freeze design
    on ``rng``, n*(2*d+2) evaluations."""
    return sobol_from_design(PickFreeze(model, n, rng, three_point=True),
                             seed=seed)
