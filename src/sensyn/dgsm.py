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
quotient of a design pair is the exact partial derivative at the base point.
What a design's reader takes from that is stated once, in
:class:`~sensyn.subspace.DesignReading`.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError
from .models import Model, noise_columns, sample_inputs
from .randkit import RngStream

_BASE, _NOISE = 0, 2


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
    derivative, so a pick-freeze design of such a model is read by the
    gradient rule (:class:`~sensyn.subspace.DesignReading` says what it
    reads), and ``bounds`` checks its DGSM equality.  A false promise biases
    them all, so the gradient rule probes it on a few design rows per input
    before any of them is formed.  The slope matrix so read does not depend
    on the slope window, and has the windowed one's expectation: on the
    symmetric marginal laws the window tilts each base coordinate
    symmetrically about its mean, and the other inputs' derivatives are
    affine in it.
    """
    return model.multilinear and model.noise_scale == 0.0


def _gradient_rows(g) -> np.ndarray:
    """``g`` as an (n, d) float array, refused at n = 0, where its means are NaN."""
    g = np.asarray(g, dtype=np.float64)
    if len(g) == 0:
        raise InputDomainError("no gradient samples: a mean over zero rows is undefined")
    return g


def dgsm_from_gradients(g: np.ndarray) -> np.ndarray:
    """Mean squared partial derivatives, one value per input."""
    return np.mean(_gradient_rows(g) ** 2, axis=0)


def dgsm(model: Model, n: int, h: float, rng: RngStream) -> np.ndarray:
    """Derivative-based global sensitivity measure of every input."""
    return dgsm_from_gradients(gradient_matrix(model, n, h, rng))
