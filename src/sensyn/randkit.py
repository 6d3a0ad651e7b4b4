"""Deterministic random streams and marginal input distributions.

The sampling side of every estimator in this package flows through
:class:`RngStream` (a counter-based generator keyed by ``(seed, stream_id)``)
and the inverse CDFs of the marginal distributions, so that any quantity is a
pure function of the seed and the stream layout, independent of evaluation
order.  A stream builds its Philox bit generator on its first draw, so a
stream that only derives substreams never builds one, and keys it directly
with ``(seed, stream_id)``, so building one draws no OS entropy.

The normal quantile is Wichura's AS241 rational approximation and the normal
CDF is the stdlib ``math.erfc``, both in plain numpy/Python, so no code path
imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class _PhiloxKey:
    """The seed sequence of one stream's Philox: its 128-bit key is the two
    words ``(seed, stream_id)``.  Philox(key=...) would first build an
    OS-entropy ``SeedSequence()`` only to discard it."""

    def __init__(self, seed: int, stream_id: int):
        self._words = np.array([seed, stream_id], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self._words.copy()


def _philox(seed: int, stream_id: int):
    """The Philox bit generator keyed with ``(seed, stream_id)``.
    :class:`_PhiloxKey` becomes a numpy ``ISeedSequence`` here, on the first
    draw, so that importing this module does not import numpy.random."""
    interface = np.random.bit_generator.ISeedSequence
    if not issubclass(_PhiloxKey, interface):
        interface.register(_PhiloxKey)
    return np.random.Philox(_PhiloxKey(seed, stream_id))


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
        self._bits = None  # the Philox, built on the first draw

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
        if self._bits is None:
            self._bits = _philox(self.seed, self.stream_id)
        raw = self._bits.random_raw(n)
        # top 53 bits, centered on half-steps: values in (0, 1) exclusive,
        # built in place with no array beyond the raw words and the result
        raw >>= np.uint64(11)
        u = raw.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    def standard_normals(self, n: int) -> np.ndarray:
        """Draw ``n`` N(0,1) variates via the package's inverse CDF."""
        return normal_inv_cdf(self.uniforms(n))


# ---------------------------------------------------------------------------
# Standard normal CDF / inverse CDF
# ---------------------------------------------------------------------------

_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal CDF, accurate in both tails (erfc based)."""
    x = np.asarray(x, dtype=np.float64)
    p = 0.5 * np.asarray(_erfc(-x * _SQRT1_2), dtype=np.float64)
    return p if p.ndim else float(p)


def normal_pdf(x):
    x = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


# Wichura (1988), "Algorithm AS241: The percentage points of the normal
# distribution", Applied Statistics 37(3), PPND16.  Each table holds the
# numerator and denominator coefficients of one rational branch, highest
# degree first.
_CENTRAL = (  # |u - 1/2| <= 0.425, in r = 0.180625 - (u - 1/2)**2
    (2.5090809287301226727e+3, 3.3430575583588128105e+4,
     6.7265770927008700853e+4, 4.5921953931549871457e+4,
     1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4,
     3.9307895800092710610e+4, 2.1213794301586595867e+4,
     5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_INTERMEDIATE = (  # r = sqrt(-log min(u, 1 - u)) <= 5, in r - 1.6
    (7.7454501427834140764e-4, 2.2723844989269184583e-2,
     2.4178072517745061177e-1, 1.2704582524523683826e+0,
     3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4,
     1.5198666563616457197e-2, 1.4810397642748007459e-1,
     6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_FAR = (  # r > 5, in r - 5
    (2.0103343992922881327e-7, 2.7115555687434875782e-5,
     1.2426609473880784386e-3, 2.6532189526576123093e-2,
     2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7,
     1.8463183175100546818e-5, 7.8686913114561329059e-4,
     1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _horner(coefficients, r):
    """The polynomial at ``r`` by Horner's rule, in place on one new array."""
    acc = coefficients[0] * r
    for c in coefficients[1:-1]:
        acc += c
        acc *= r
    acc += coefficients[-1]
    return acc


def _rational(table, r):
    """Numerator / denominator of one AS241 branch, both by Horner in ``r``."""
    out = _horner(table[0], r)
    out /= _horner(table[1], r)
    return out


def normal_inv_cdf(u):
    """Standard normal inverse CDF for ``u`` in the open interval (0, 1).

    Wichura's AS241 (PPND16), accurate to about 1e-16 relative, evaluated
    elementwise with no BLAS call.  The central ratio is computed for every
    element and then overwritten on the tail elements, whose argument
    ``min(u, 1 - u)`` keeps full relative precision down to the smallest
    subnormal.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if not ((u_arr > 0.0) & (u_arr < 1.0)).all():  # NaN fails too
        raise InputDomainError("inverse CDF argument must lie strictly in (0, 1)")
    flat = u_arr.ravel()
    q = flat - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _rational(_CENTRAL, r)
    x *= q
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        t = flat[tail]
        r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
        xt = _rational(_INTERMEDIATE, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            xt[far] = _rational(_FAR, r[far] - 5.0)
        x[tail] = np.copysign(xt, q[tail])
    return x.reshape(u_arr.shape) if u_arr.ndim else float(x[0])


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
        if not ((u > 0.0) & (u < 1.0)).all():  # NaN fails too
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
