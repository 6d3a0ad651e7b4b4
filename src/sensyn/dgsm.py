"""Forward finite-difference gradients and derivative-based sensitivity.

The derivative measure of input i is the mean squared partial derivative
over the input law.  Gradients are forward differences with a shared base
evaluation, d+1 model calls per point; for stochastic models the base and
the shifted evaluations draw independent noise, so noise of scale k inflates
every squared derivative by about 2*k**2/h**2.  That amplification is the
characteristic failure mode of derivative measures on noisy models and is
deliberately left intact.
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
    if not np.all(np.isfinite(g)):
        bad = int(np.nonzero(~np.all(np.isfinite(g), axis=0))[0][0])
        raise InputDomainError(f"non-finite derivative for input {bad + 1}")
    return g


def dgsm_from_gradients(g: np.ndarray) -> np.ndarray:
    """Mean squared partial derivatives, one value per input."""
    return np.mean(np.asarray(g, dtype=np.float64) ** 2, axis=0)


def dgsm(model: Model, n: int, h: float, rng: RngStream) -> np.ndarray:
    """Derivative-based global sensitivity measure of every input."""
    return dgsm_from_gradients(gradient_matrix(model, n, h, rng))
