"""Forward finite-difference gradients and derivative-based sensitivity.

The derivative measure of input i is the mean squared partial derivative
over the input law.  Gradients are forward differences with a shared base
evaluation, d+1 model calls per point; for stochastic models the base and
the shifted evaluations draw independent noise, so noise of scale k inflates
every squared derivative by about 2*k**2/h**2.  That amplification is the
characteristic failure mode of derivative measures on noisy models and is
deliberately left intact.

A noise-free multilinear model needs none of those rows where a pick-freeze
design is at hand: it is affine in each input with the others fixed, so the
quotient of a design pair is the exact partial derivative at the base point
(:class:`DesignGradients`).  Every finite slope of such a model is that
derivative too, so its slope matrix on the design is the outer-product
matrix of these gradients, and its main-effect variances follow from their
means (:func:`~sensyn.variance.lower_from_gradients`).
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError, ModelOutputError
from .models import Model, noise_columns, sample_inputs
from .randkit import RngStream

_BASE, _NOISE = 0, 2
PROBE_ROWS = 8  # design rows per input on which the multilinear promise is probed


def gradient_matrix(model: Model, n: int, h: float, rng: RngStream,
                    base: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Forward-difference gradients at n sampled points, as an (n, d) array.

    All d partial differences of one point share its base evaluation; every
    evaluation batch draws independent noise for stochastic models.
    ``base = (z, f(z))`` supplies evaluated base points (a pick-freeze
    design's, say) in place of drawing them, which saves n evaluations; each
    shift is written into z in place, and z is restored before the call
    returns or raises (:meth:`~sensyn.models.Model.evaluate_column`).
    """
    if n < 1:
        raise InputDomainError("gradient sampling needs n >= 1")
    if h <= 0.0:
        raise InputDomainError("finite-difference increment must be positive")
    noise = rng.substream(_NOISE)
    if base is None:
        z = sample_inputs(model, n, rng.substream(_BASE))
        fz = model.evaluate(z, rng=noise.substream(0))
    else:
        z, fz = base
    g = np.empty((len(z), model.d))
    for i, eps in enumerate(noise_columns(model, len(z), noise)):
        fzi = model.evaluate_column(z, i, z[:, i] + h, noise=eps)
        g[:, i] = (fzi - fz) / h
    return _finite(g)


def _finite(g: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(g)):
        bad = int(np.nonzero(~np.all(np.isfinite(g), axis=0))[0][0])
        raise InputDomainError(f"non-finite derivative for input {bad + 1}")
    return g


def noise_free_multilinear(model: Model) -> bool:
    """Whether ``model`` is noise-free and declares itself multilinear.

    ``Model.multilinear`` promises that the output is affine in each input
    when the others are fixed (linear maps, products of distinct inputs).
    Every difference quotient along one input is then the exact partial
    derivative, so where a pick-freeze design is drawn such a model reads
    its gradients off it (:class:`DesignGradients`) instead of spending
    forward-difference rows, takes their outer-product matrix as its slope
    matrix instead of redrawing and weighting slope partners
    (:class:`~sensyn.subspace.DesignSlopes`), takes its lower Sobol' indices
    from their means instead of a third point
    (:func:`~sensyn.variance.lower_from_gradients`), and ``bounds`` checks
    its DGSM equality.  A false promise biases all four, so
    :class:`DesignGradients` probes it on a few design rows per input
    before any of them is formed.  The slope matrix so read
    does not depend on the slope window.  Its expectation is the windowed
    matrix's at every window, because the window tilts each base coordinate
    symmetrically about its mean on the symmetric marginal laws
    (``Uniform``, ``Normal``), and the other inputs' derivatives are affine
    in it.
    """
    return model.multilinear and model.noise_scale == 0.0


class DesignGradients:
    """The gradients of a noise-free multilinear model at a pick-freeze
    design's base points, gathered one freeze column at a time.

    Called with ``(i, v_i, f(v_i, z_-i))`` for each input in turn, it writes
    ``g[:, i] = (f(v_i, z_-i) - f(z)) / (v_i - z_i)``, the exact partial
    derivative of a model that is affine in input i.  Its rounding error is
    about ``eps |f| / |v_i - z_i|``, so the pairs with ``|v_i - z_i| < h``
    take :func:`gradient_matrix`'s forward difference at step h instead:
    one row each, in one call per input, and no quotient's rounding exceeds
    the forward difference's.  Every other gradient costs no row.

    Before it reads a column it probes the promise on the first
    ``PROBE_ROWS`` design rows: a function affine in input i takes at the
    midpoint ((z_i + v_i)/2, z_-i) the mean of f(z) and f(v_i, z_-i).  A
    defect above 64 eps times the largest |f| of those rows raises
    :class:`~sensyn.errors.ModelOutputError` naming the input.  The probe
    costs one call of min(n, ``PROBE_ROWS``) rows per input.
    """

    def __init__(self, model: Model, z: np.ndarray, fz: np.ndarray, h: float):
        if not noise_free_multilinear(model):
            raise InputDomainError("a design's gradients need a noise-free multilinear model")
        if h <= 0.0:
            raise InputDomainError("finite-difference increment must be positive")
        self.model, self.z, self.fz, self.h = model, z, fz, h
        self.g = np.empty(z.shape)

    def __call__(self, i: int, v: np.ndarray, fv: np.ndarray) -> None:
        self._probe(i, v, fv)
        step = v - self.z[:, i]
        near = np.flatnonzero(np.abs(step) < self.h)
        step[near] = self.h  # their quotients are set by the forward difference
        np.divide(fv - self.fz, step, out=self.g[:, i])
        if near.size:
            x = self.z.take(near, axis=0)
            x[:, i] += self.h
            self.g[near, i] = (self.model.evaluate(x) - self.fz[near]) / self.h

    def _probe(self, i: int, v: np.ndarray, fv: np.ndarray) -> None:
        k = min(PROBE_ROWS, len(v))
        x = self.z[:k].copy()
        x[:, i] = 0.5 * (x[:, i] + v[:k])
        mid, fz, fv = self.model.evaluate(x), self.fz[:k], fv[:k]
        defect = float(np.max(np.abs(mid - (0.5 * fz + 0.5 * fv))))
        if defect > 64.0 * np.finfo(np.float64).eps * np.max(np.abs([mid, fz, fv])):
            raise ModelOutputError(
                f"model {self.model.label!r} declares itself multilinear, but is not "
                f"affine in input {i + 1}: at the midpoint of a design pair its output "
                f"differs from the mean of the pair's outputs by {defect:.3g}")

    def matrix(self) -> np.ndarray:
        """The (n, d) gradients, checked finite as :func:`gradient_matrix`'s are."""
        return _finite(self.g)


def dgsm_from_gradients(g: np.ndarray) -> np.ndarray:
    """Mean squared partial derivatives, one value per input."""
    return np.mean(np.asarray(g, dtype=np.float64) ** 2, axis=0)


def dgsm(model: Model, n: int, h: float, rng: RngStream) -> np.ndarray:
    """Derivative-based global sensitivity measure of every input."""
    return dgsm_from_gradients(gradient_matrix(model, n, h, rng))
