"""Deterministic random streams and marginal input distributions.

The sampling side of every estimator in this package flows through
:class:`RngStream` (a counter-based generator keyed by ``(seed, stream_id)``)
and the inverse CDFs of the marginal distributions, so that any quantity is a
pure function of the seed and the stream layout, independent of evaluation
order.

``scipy.special`` is imported on the first normal draw or normal CDF, not at
module load, so a process whose inputs are all uniform and whose model has
no evaluation noise never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RngStream:
    """Counter-based random stream identified by ``(seed, stream_id)``.

    The sequence drawn from a stream is a pure function of the pair, and
    output ``i`` is a pure function of ``(seed, stream_id, i)`` (Philox is
    counter-based), so independent substreams may be consumed in any order
    without perturbing one another.  Each ``(seed, stream_id)`` pair should
    be consumed by a single caller.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed <= _MASK64:
            raise InputDomainError("seed must fit in an unsigned 64-bit word")
        if not 0 <= stream_id <= _MASK64:
            raise InputDomainError("stream_id must fit in an unsigned 64-bit word")
        self.seed = seed
        self.stream_id = stream_id
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream for role/index `index`."""
        if index < 0:
            raise InputDomainError("substream index must be nonnegative")
        child = _mix64(self.stream_id ^ _mix64(index + 1))
        return RngStream(self.seed, child)

    def uniforms(self, n: int) -> np.ndarray:
        """Draw ``n`` variates strictly inside (0, 1)."""
        if n < 0:
            raise InputDomainError("draw count must be nonnegative")
        raw = self._gen.integers(0, 1 << 64, size=n, dtype=np.uint64)
        # top 53 bits, centered on half-steps: values in (0, 1) exclusive
        return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw ``n`` N(0,1) variates via the package's inverse CDF."""
        return normal_inv_cdf(self.uniforms(n))


# ---------------------------------------------------------------------------
# Standard normal CDF / inverse CDF
# ---------------------------------------------------------------------------

def normal_cdf(x):
    """Standard normal CDF, accurate in both tails (erfc based)."""
    from scipy.special import erfc

    x = np.asarray(x, dtype=np.float64)
    return 0.5 * erfc(-x / _SQRT2)


def normal_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def normal_inv_cdf(u):
    """Standard normal inverse CDF for ``u`` in the open interval (0, 1)."""
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise InputDomainError("inverse CDF argument must lie strictly in (0, 1)")
    from scipy.special import ndtri

    x = ndtri(u_arr)
    return x if u_arr.ndim else float(x)


# ---------------------------------------------------------------------------
# Marginal input distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Uniform law on the open interval (lower, upper)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InputDomainError("uniform bounds must be finite")
        if not self.lower < self.upper:
            raise InputDomainError("uniform requires lower < upper strictly")

    @property
    def scale(self) -> float:
        return self.upper - self.lower

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.lower) / self.scale, 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(inside, 1.0 / self.scale, 0.0)

    def inv_cdf(self, u):
        u = np.asarray(u, dtype=np.float64)
        if np.any(u <= 0.0) or np.any(u >= 1.0):
            raise InputDomainError("inverse CDF argument must lie strictly in (0, 1)")
        return self.lower + self.scale * u


@dataclass(frozen=True)
class Normal:
    """Normal law with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise InputDomainError("normal parameters must be finite")
        if not self.sigma > 0.0:
            raise InputDomainError("normal requires sigma > 0 strictly")

    @property
    def scale(self) -> float:
        return self.sigma

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return normal_cdf((x - self.mu) / self.sigma)

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return normal_pdf((x - self.mu) / self.sigma) / self.sigma

    def inv_cdf(self, u):
        return self.mu + self.sigma * normal_inv_cdf(u)


InputDistribution = Uniform | Normal


def inverse_cdf(dist: InputDistribution, u):
    """Quantile function of ``dist``; strictly increasing on (0, 1)."""
    return dist.inv_cdf(u)


def sample(dist: InputDistribution, rng: RngStream, n: int) -> np.ndarray:
    """Draw ``n`` i.i.d. variates by inverse-CDF transform of uniforms."""
    if n < 1:
        raise InputDomainError("sample size must be at least 1")
    return dist.inv_cdf(rng.uniforms(n))


def cheeger_constant(dist: InputDistribution) -> float:
    """Distribution constant ``4 * [sup min(F, 1-F) / f]**2`` in closed form.

    Uniform(a, b) gives ``(b - a)**2`` and Normal(mu, s) gives ``2*pi*s**2``;
    both suprema sit at the median.
    """
    if isinstance(dist, Uniform):
        return dist.scale**2
    if isinstance(dist, Normal):
        return 2.0 * math.pi * dist.sigma**2
    raise InputDomainError(f"unsupported distribution {dist!r}")


def cheeger_constant_grid(dist: InputDistribution, n_grid: int = 10**6) -> float:
    """Grid-search evaluation of :func:`cheeger_constant`.

    Scans ``n_grid`` equally spaced quantiles of the central
    (1e-6, 1 - 1e-6) range; serves as the independent check of the
    closed forms (agreement to ~1e-4 for the supported families).
    """
    u = np.linspace(1e-6, 1.0 - 1e-6, n_grid)
    x = dist.inv_cdf(u)
    ratio = np.minimum(u, 1.0 - u) / dist.pdf(x)
    return float(4.0 * np.max(ratio) ** 2)
