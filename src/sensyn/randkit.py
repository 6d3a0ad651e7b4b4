"""Deterministic random streams and marginal input distributions.

The sampling side of every estimator in this package flows through
:class:`RngStream` (a counter-based generator keyed by ``(seed, stream_id)``)
and the inverse CDFs of the marginal distributions, so that any quantity is a
pure function of the seed and the stream layout, independent of evaluation
order.  A stream builds its Philox bit generator on its first draw, so a
stream that only derives substreams never builds one, and keys it directly
with ``(seed, stream_id)``, so building one draws no OS entropy.

The normal quantile is Wichura's AS241 rational approximation and the normal
CDF is Cephes' erf/erfc rationals with a Cody-Waite exponential, both in
plain numpy/Python, so no code path imports scipy.  Neither calls a numpy
transcendental ufunc (the quantile's tail logarithm is fdlibm's, in
arithmetic), so their bytes do not depend on which SIMD kernels numpy
dispatches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# most draws per inverse-CDF call in draw_columns: a normal call costs
# ~70 us at any size, and per draw it is cheapest here (on a 2-vCPU Xeon VM,
# 69 ns a draw at 1,000 draws, 20 at 8,192, 16 at 16,384 and 22 at 32,768,
# where its arrays outgrow the cache)
_BLOCK_DRAWS = 16_384

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

# Cephes (Moshier 1984-2000, ndtr.c).  erf(a) = a T(a**2) / U(a**2) for
# |a| < 1; erfc(a) = exp(-a**2) P(a) / Q(a) for 1 <= a < 8 and
# exp(-a**2) R(a) / S(a) beyond.  Highest degree first, as in ``_horner``.
_ERF = ((9.60497373987051638749e+0, 9.00260197203842689217e+1,
         2.23200534594684319226e+3, 7.00332514112805075473e+3,
         5.55923013010394962768e+4),
        (1.0, 3.35617141647503099647e+1, 5.21357949780152679795e+2,
         4.59432382970980127987e+3, 2.26290000613890934246e+4,
         4.92673942608635921086e+4))
_ERFC_NEAR = ((2.46196981473530512524e-10, 5.64189564831068821977e-1,
               7.46321056442269912687e+0, 4.86371970985681366614e+1,
               1.96520832956077098242e+2, 5.26445194995477358631e+2,
               9.34528527171957607540e+2, 1.02755188689515710272e+3,
               5.57535335369399327526e+2),
              (1.0, 1.32281951154744992508e+1, 8.67072140885989742329e+1,
               3.54937778887819891062e+2, 9.75708501743205489753e+2,
               1.82390916687909736289e+3, 2.24633760818710981792e+3,
               1.65666309194161350182e+3, 5.57535340817727675546e+2))
_ERFC_FAR = ((5.64189583547755073984e-1, 1.27536670759978104416e+0,
              5.01905042251180477414e+0, 6.16021097993053585195e+0,
              7.40974269950448939160e+0, 2.97886665372100240670e+0),
             (1.0, 2.26052863220117276590e+0, 9.39603524938001434673e+0,
              1.20489539808096656605e+1, 1.70814450747565897222e+1,
              9.60896809063285878198e+0, 3.36907645100081516050e+0))
# exp(r) on |r| <= ln(2)/2 (fdlibm e_exp.c): ln 2 split so that k * hi is
# exact, and the remez coefficients of r - r**2 P(r**2), highest first
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_INV_LN2 = 1.0 / math.log(2.0)
_EXP_P = (4.13813679705723846039e-08, -1.65339022054652515390e-06,
          6.61375632143793436117e-05, -2.77777777770155933842e-03,
          1.66666666666666019037e-01)
# log(1 + f) = f - f**2/2 + s (f**2/2 + R(s**2)), s = f / (2 + f) (fdlibm
# e_log.c): R's even and odd parts in w = s**4, highest degree first
_LOG_EVEN = (1.531383769920937332e-01, 2.222219843214978396e-01,
             3.999999999940941908e-01)
_LOG_ODD = (1.479819860511658591e-01, 1.818357216161805012e-01,
            2.857142874366239149e-01, 6.666666666666735130e-01)
_ERFC_ZERO = 40.0  # erfc(a) underflows to 0 well before this


def _exp_neg_square(a):
    """``exp(-a**2)`` as ``(mantissa, k)`` with value ``ldexp(mantissa, k)``.

    ``a`` is split into ``hi + lo`` with ``hi`` on a 2**-16 grid, so
    ``hi**2`` is exact and only the small part ``lo (a + hi)`` of ``a**2``
    is rounded before the Cody-Waite reduction ``r = -a**2 - k ln 2``;
    exp(r) is fdlibm's rational.
    """
    hi = np.rint(a * 65536.0)
    hi *= 1.0 / 65536.0
    lo = a - hi
    t = hi * hi
    t *= -1.0
    k = np.rint(t * _INV_LN2)
    r = t - k * _LN2_HI
    lo *= a + hi  # 2 hi lo + lo**2
    lo += k * _LN2_LO
    r -= lo
    rr = r * r
    c = _horner(_EXP_P, rr)
    c *= rr
    np.subtract(r, c, out=c)  # r - r**2 P(r**2)
    e = r * c
    e /= c - 2.0
    e -= r
    return 1.0 - e, k.astype(np.int64)


def _log(x):
    """Natural logarithm of positive finite ``x`` within one ulp, from
    ``np.frexp`` and +, -, *, / alone (fdlibm's e_log.c), so its bytes do
    not depend on numpy's SIMD dispatch; numpy's vector ``log`` differs
    from libm's in the last bit for ~2 in 10**4 arguments on AVX-512."""
    m, k = np.frexp(x)  # x = m 2**k, m in [1/2, 1)
    small = m < _SQRT1_2
    m += m * small  # m in [sqrt(1/2), sqrt 2)
    k = (k - small).astype(np.float64)
    f = m
    f -= 1.0
    s = f / (f + 2.0)
    z = s * s
    w = z * z
    r = _horner(_LOG_EVEN, w)
    r *= w
    odd = _horner(_LOG_ODD, w)
    odd *= z
    r += odd
    hfsq = 0.5 * f * f
    r += hfsq
    r *= s
    r += k * _LN2_LO  # s (f**2/2 + R) + k ln2_lo
    np.subtract(hfsq, r, out=r)
    r -= f
    return k * _LN2_HI - r


def normal_cdf(x):
    """Standard normal CDF, accurate in both tails.

    ``1/2 + erf(x / sqrt 2) / 2`` for |x| < sqrt 2 and ``erfc(|x| / sqrt 2) / 2``
    (or one minus it) beyond, from Cephes' rationals and an exponential
    built from +, -, *, / and ``np.ldexp`` alone, so the bytes are the same
    at every numpy SIMD dispatch level.  NaN maps to NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    p = np.empty(x.shape)
    if np.isnan(x).any():
        p.fill(np.nan)  # neither branch below writes a NaN's slot
    flat = p.reshape(-1)  # a view: p's slots
    a = x.ravel() * _SQRT1_2
    t = np.abs(a)
    inner = np.flatnonzero(t < 1.0)
    if inner.size:
        ai = a[inner]
        q = _rational(_ERF, ai * ai)
        q *= 0.5 * ai
        flat[inner] = q + 0.5
    outer = np.flatnonzero(t >= 1.0)
    if outer.size:
        to = np.minimum(t[outer], _ERFC_ZERO)
        ratio = _rational(_ERFC_NEAR, to)
        far = np.flatnonzero(to >= 8.0)
        if far.size:
            ratio[far] = _rational(_ERFC_FAR, to[far])
        e, k = _exp_neg_square(to)
        ratio *= e
        half = np.ldexp(ratio, k - 1)  # erfc(t) / 2
        upper = np.flatnonzero(a[outer] > 0.0)
        half[upper] = 1.0 - half[upper]
        flat[outer] = half
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
        r = _log(np.minimum(t, 1.0 - t))
        np.negative(r, out=r)
        np.sqrt(r, out=r)
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


def law_runs(laws) -> list[tuple[InputDistribution, int, int]]:
    """``(law, start, stop)`` of each maximal run of consecutive equal laws."""
    runs = []
    for i, dist in enumerate(laws):
        if runs and runs[-1][0] == dist:
            runs[-1][2] = i + 1
        else:
            runs.append([dist, i, i + 1])
    return [tuple(run) for run in runs]


def draw_columns(laws, streams, n: int):
    """Yield ``laws[i].inv_cdf(streams[i].uniforms(n))`` for each column i in
    turn, or ``streams[i].standard_normals(n)`` when ``laws`` is None.

    Consecutive columns with one law are drawn in blocks of at most
    ``_BLOCK_DRAWS`` draws, and of at least one column: each stream draws
    its own uniforms, and the block's uniforms pass through one inverse-CDF
    call, whose fixed cost would otherwise be paid per column at small n.
    The inverse CDFs are elementwise, so each column has the bytes it has
    when drawn alone, and a one-column block is drawn as alone, with no
    copy.  The columns of a block are views of one array.
    """
    per_block = max(1, _BLOCK_DRAWS // n) if n > 0 else 1
    runs = [(None, 0, len(streams))] if laws is None else law_runs(laws)
    for law, lo, hi in runs:
        inv_cdf = normal_inv_cdf if law is None else law.inv_cdf
        for start in range(lo, hi, per_block):
            block = streams[start:min(start + per_block, hi)]
            if len(block) == 1:
                yield inv_cdf(block[0].uniforms(n))
            else:
                u = np.concatenate([s.uniforms(n) for s in block])
                yield from inv_cdf(u).reshape(-1, n)


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
