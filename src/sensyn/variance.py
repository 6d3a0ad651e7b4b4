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
place (:meth:`~sensyn.models.Model.evaluate_column`, which restores it even
when the model fails), instead of copying the design once per input, and
they reduce the outputs one column at a time, so no (n, d) array of outputs
is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError, ZeroVarianceError
from .models import Model, noise_columns, sample_inputs
from .randkit import RngStream, draw_columns

# substream roles within one design: base, freeze columns, noise, and the
# lower estimator's third point and its noise
_BASE, _FREEZE, _NOISE, _THIRD, _THIRD_NOISE = 0, 1, 2, 3, 4


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
    :func:`sobol_from_design` draws its third point on 3 and that point's
    noise on 4.  The freeze columns, and a stochastic model's noise, are
    drawn in blocks of consecutive inputs with one law
    (:func:`~sensyn.randkit.draw_columns`), one inverse-CDF call for up to
    16,384 draws; each column still draws its uniforms on its own child, so
    the stream layout and the bytes are those of drawing it alone.
    """

    def __init__(self, model: Model, n: int, rng: RngStream):
        if n < 2:
            raise InputDomainError("pick-freeze estimation needs n >= 2")
        self.model, self.n, self.rng = model, n, rng
        self.z = sample_inputs(model, n, rng.substream(_BASE))
        self.noise = rng.substream(_NOISE)
        self.fz = model.evaluate(self.z, rng=self.noise.substream(0))

    def columns(self):
        """Yield ``(i, v_i, f(v_i, z_-i))`` for every input in turn.

        ``z`` holds v_i only while column i is evaluated, so it is the base
        again whenever a column is handed out; ``v_i`` shares memory with no
        other column, so the caller may keep or overwrite it.
        """
        model, n, freeze = self.model, self.n, self.rng.substream(_FREEZE)
        values = draw_columns(model.marginals,
                              [freeze.substream(i) for i in range(model.d)], n)
        noise = noise_columns(model, n, self.noise)
        for i, (v, eps) in enumerate(zip(values, noise)):
            yield i, v, model.evaluate_column(self.z, i, v, noise=eps)


def _checked_variance(fz: np.ndarray, what: str) -> float:
    sigma2 = float(np.var(fz, ddof=1))
    if sigma2 <= 0.0:
        raise ZeroVarianceError(f"{what} undefined for a constant model")
    return sigma2


def _upper(fz: np.ndarray, fv: np.ndarray, sigma2: float) -> float:
    return np.mean((fz - fv) ** 2) / (2.0 * sigma2)


def upper_from_design(design: PickFreeze,
                      on_column=()) -> tuple[np.ndarray, float]:
    """Upper indices of a design, and the variance of f(z) that normalizes
    them.  Each callable of ``on_column`` is called as
    ``(i, v_i, f(v_i, z_-i))`` with every freeze column after its index is
    reduced; the callables share ``v_i``, so none may overwrite it."""
    sigma2 = _checked_variance(design.fz, "upper Sobol' indices")
    out = np.empty(design.model.d)
    for i, v, fv in design.columns():
        out[i] = _upper(design.fz, fv, sigma2)
        for consumer in on_column:
            consumer(i, v, fv)
    return out, sigma2


def upper_sobol(model: Model, n: int, rng: RngStream) -> np.ndarray:
    """Pick-freeze estimate of the upper (total-effect) Sobol' indices.

    For each input i the base point has coordinate i replaced by a fresh
    draw and the halved mean square difference is divided by the variance
    of the base evaluations.  Estimates are nonnegative by construction and
    are not clipped from above.
    """
    return upper_from_design(PickFreeze(model, n, rng))[0]


def prefix_upper(design: PickFreeze, sizes) -> np.ndarray:
    """Upper indices of each prefix of a design: row k of the
    (len(sizes), d) result reduces the first ``sizes[k]`` rows, normalized
    by their own variance.  ``sizes`` increase, the last at most
    ``design.n``.  A design's rows are drawn in order, so on a design of
    :func:`upper_sobol` row k is what that function gives at ``sizes[k]``
    on the same stream, up to rounding where the model's output at a row
    depends on the batch length (a BLAS matrix-vector product's does)."""
    sigma2 = [_checked_variance(design.fz[:s], "upper Sobol' indices")
              for s in sizes]
    out = np.empty((len(sizes), design.model.d))
    for i, _, fv in design.columns():
        for k, s in enumerate(sizes):
            out[k, i] = _upper(design.fz[:s], fv[:s], sigma2[k])
    return out


def sobol_from_design(design: PickFreeze, on_column=()) -> SobolEstimate:
    """Upper and lower indices, and the variance of f(z), from one design.

    The lower indices take x = z and y = v from the design and draw a fresh
    third point w on substream 3 of the design's stream.  The mean of

        (f(x) - f(y_i, x_-i)) * (f(x_i, w_-i) - f(w))

    is the main-effect variance of input i: both factors have zero mean and
    only the f(x)f(x_i, w_-i) and f(y_i, x_-i)f(w) pairs share a coordinate.
    The first factor is read off the design, so the estimator adds f(w) and
    the d columns f(x_i, w_-i), n*(d+1) evaluations, whose noise is drawn
    on substream 4 (child 0 for f(w), child i + 1 for f(x_i, w_-i)).  Small
    negative estimates are Monte Carlo noise and are reported as-is.
    ``on_column`` holds callables that see every freeze column after its
    indices are reduced, as in :func:`upper_from_design`.
    """
    model, n, x, fx = design.model, design.n, design.z, design.fz
    sigma2 = _checked_variance(fx, "Sobol' indices")
    w = sample_inputs(model, n, design.rng.substream(_THIRD))
    noise = design.rng.substream(_THIRD_NOISE)
    fw = model.evaluate(w, rng=noise.substream(0))
    upper, lower = np.empty(model.d), np.empty(model.d)
    for (i, v, fv), eps in zip(design.columns(), noise_columns(model, n, noise)):
        upper[i] = _upper(fx, fv, sigma2)
        fxw = model.evaluate_column(w, i, x[:, i], noise=eps)
        lower[i] = np.mean((fx - fv) * (fxw - fw)) / sigma2
        for consumer in on_column:
            consumer(i, v, fv)
    return SobolEstimate(lower=lower, upper=upper, sigma2_hat=sigma2, n=n,
                         seed=design.rng.seed)


def lower_sobol(model: Model, n: int, rng: RngStream) -> np.ndarray:
    """Correlation estimate of the lower (main-effect) Sobol' indices, from
    a pick-freeze design on ``rng`` and a fresh third point
    (:func:`sobol_from_design`)."""
    return sobol_from_design(PickFreeze(model, n, rng)).lower


def estimate_sobol(model: Model, n: int, rng: RngStream) -> SobolEstimate:
    """Both index estimators and the variance from one pick-freeze design
    on ``rng``, n*(2*d+2) evaluations."""
    return sobol_from_design(PickFreeze(model, n, rng))
