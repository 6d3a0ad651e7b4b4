"""Gradient and finite-slope sensitivity matrices and their scores.

Two symmetric PSD matrices are estimated here:

* the gradient outer-product matrix (AS), averaging ``grad f grad f'`` over
  sampled points, with forward-difference gradients; and
* the finite-slope matrix (GAS), averaging outer products of difference
  quotients ``(f(v_i, z_-i) - f(z)) / (v_i - z_i)`` where one coordinate at a
  time is replaced by a fresh draw.

Scores attribute subspace energy back to inputs: the score of input i over
the leading m eigenpairs is ``sum_j<=m lambda_j * u_ij**2``; at m = d it
reproduces the matrix diagonal.

Two implementation choices make the slope matrix usable beyond smooth
noise-free models:

* ``slope_window``: the (base, freeze) coordinate pair of each quotient is
  drawn from the product law conditioned on a minimum separation (a fixed
  fraction of the marginal's scale).  Raw quotients have heavy tails whenever
  the integrand does not smooth out as the pair coincides (discontinuous
  response, evaluation noise); a separation floor bounds the quotient
  denominators while leaving multilinear slopes untouched and quadratic
  second moments exactly unbiased under normal marginals (the pair midpoint
  is independent of the pair gap).  A first draw that clears the floor is
  kept, so the base evaluation f(z) stays shared; each pair that does not is
  replaced by one closed-form draw from the conditioned law
  (:func:`separated_pairs`).  The cost is therefore fixed: one extra
  evaluated row per replaced pair, and no redraw rounds.  When the freeze
  outputs come from a pick-freeze design (:class:`DesignSlopes`) they were
  evaluated at the first draw, so a replaced pair costs two rows there.
* evaluation noise is drawn once per replicate and shared by the replicate's
  evaluations, so common-mode noise cancels inside each difference quotient.
  This is what keeps the slope matrix stable on stochastic models while
  derivative measures degrade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgsm import gradient_matrix
from .errors import InputDomainError
from .linalg import SpectralDecomposition, select_m, sym_eig
from .models import Model, sample_inputs
from .randkit import (InputDistribution, Normal, RngStream, Uniform, normal_cdf,
                      normal_inv_cdf)

DEFAULT_SLOPE_WINDOW = 0.35
_COINCIDENT_TOL = 1e-12

_BASE, _FREEZE, _NOISE, _REDRAW = 0, 1, 2, 3


@dataclass(frozen=True)
class SubspaceResult:
    """A sensitivity matrix with its eigendecomposition and chosen rank."""

    kind: str  # "AS" or "GAS"
    matrix: np.ndarray
    spectrum: SpectralDecomposition
    m_selected: int

    @property
    def d(self) -> int:
        return self.spectrum.dim

    def scores(self, m: int | None = None) -> np.ndarray:
        """Per-input scores over the leading ``m`` eigenpairs (default: the
        selected m)."""
        return scores(self.spectrum, self.m_selected if m is None else m)


def scores(spec: SpectralDecomposition, m: int) -> np.ndarray:
    """Energy of each input over the top ``m`` eigenpairs."""
    if not 1 <= m <= spec.dim:
        raise InputDomainError(f"m must lie in 1..{spec.dim}")
    u = spec.eigenvectors[:, :m]
    return (u * u) @ spec.eigenvalues[:m]


def _mean_outer(d_mat: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """(1/n) * sum of row outer products, accumulated in a fixed order.

    Chunked einsum keeps the reduction off multithreaded BLAS paths so the
    result is bitwise reproducible across thread counts.
    """
    n, d = d_mat.shape
    acc = np.zeros((d, d))
    for start in range(0, n, chunk):
        block = d_mat[start:start + chunk]
        acc += np.einsum("ni,nj->ij", block, block)
    return acc / n


def separated_pairs(dist: InputDistribution, gap: float, n: int,
                    rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` i.i.d. pairs ``(a, b)`` from the product law of ``dist``
    conditioned on ``|a - b| >= gap``, from one ``uniforms(3 * n)`` call.

    Uniform(lo, lo + L): the pair gap g has density proportional to
    ``L - g`` on [gap, L], and given g the lower point is uniform on
    [lo, lo + L - g].  Normal(mu, sigma): ``a + b`` and ``a - b`` are
    independent, so the sum keeps its N(2 mu, 2 sigma**2) law and the
    difference is N(0, 2 sigma**2) truncated to ``|a - b| >= gap``.  The
    third uniform decides which of ``a`` and ``b`` is the larger.  ``gap``
    must be nonnegative and, for a uniform, below its width.
    """
    u0, u1, u2 = rng.uniforms(3 * n).reshape(3, n)
    if isinstance(dist, Uniform):
        slack = (dist.scale - gap) * np.sqrt(u0)  # L - g
        lower = dist.lower + slack * u1
        upper = lower + (dist.scale - slack)
        low_first = u2 < 0.5
        return np.where(low_first, lower, upper), np.where(low_first, upper, lower)
    if isinstance(dist, Normal):
        spread = math.sqrt(2.0) * dist.sigma
        total = 2.0 * dist.mu + spread * normal_inv_cdf(u1)
        diff = -spread * normal_inv_cdf(u0 * normal_cdf(-gap / spread))
        diff = np.where(u2 < 0.5, diff, -diff)
        return 0.5 * (total + diff), 0.5 * (total - diff)
    raise InputDomainError(f"no separated pair law for marginal {dist!r}")


def _slope_gaps(model: Model, slope_window: float) -> np.ndarray:
    """Separation floor of the (base, freeze) pairs of each input."""
    if not 0.0 <= slope_window < 0.9:
        raise InputDomainError("slope_window must lie in [0, 0.9)")
    return np.array([max(slope_window * dist.scale, _COINCIDENT_TOL * dist.scale)
                     for dist in model.marginals])


def _slope_column(model: Model, z: np.ndarray, i: int, b: np.ndarray,
                  fz: np.ndarray, gap: float, rng: RngStream, *,
                  noise: np.ndarray | None = None,
                  fb: np.ndarray | None = None) -> np.ndarray:
    """Difference quotients of input i between the base points ``z`` (with
    outputs ``fz``) and the same points with coordinate i set to ``b``.

    Each pair ``(z_i, b)`` closer than ``gap`` is replaced by one
    :func:`separated_pairs` draw on ``rng``; ``b`` takes the replacements in
    place.  Without ``fb`` the whole column f(b, z_-i) is evaluated after the
    replacement; with ``fb`` = f(b, z_-i) already evaluated at the first
    draws, only the replaced pairs' rows are.  Either way each replaced
    pair's base point costs one more row.  ``noise`` holds the common-mode
    noise variates of the rows; ``z`` is unchanged on return.
    """
    a = z[:, i].copy()
    bad = np.abs(b - a) < gap
    nb = int(bad.sum())
    if nb:
        a_bad, b[bad] = separated_pairs(model.marginals[i], gap, nb, rng)
    if fb is None:
        z[:, i] = b
        fb = model.evaluate(z, noise=noise)
        z[:, i] = a
    elif nb:
        zb = z[bad]
        zb[:, i] = b[bad]
        fb = fb.copy()
        fb[bad] = model.evaluate(zb, noise=None if noise is None else noise[bad])
    fa = fz
    if nb:
        a[bad] = a_bad
        za = z[bad]
        za[:, i] = a_bad
        fa = fz.copy()
        fa[bad] = model.evaluate(za, noise=None if noise is None else noise[bad])
    return (fb - fa) / (b - a)


def estimate_c_gas(model: Model, m1: int, m2: int, rng: RngStream,
                   slope_window: float = DEFAULT_SLOPE_WINDOW) -> np.ndarray:
    """Monte Carlo estimate of the finite-slope sensitivity matrix.

    Averages ``m1 * m2`` outer products of slope vectors: ``m1`` base points,
    each paired with ``m2`` fresh freeze vectors.  One base evaluation is
    shared by the d quotients of a replicate (d+1 calls).  A (base, freeze)
    coordinate pair closer than the separation floor is replaced by one
    draw of :func:`separated_pairs`, which costs one extra evaluated row and,
    per (freeze vector, input) with any such pair, one extra model call and
    one ``uniforms`` call; there is no rejection loop.  Stochastic models
    draw one noise variate per base point, shared by all of its evaluations.
    """
    if m1 < 1 or m2 < 1:
        raise InputDomainError("sample sizes m1 and m2 must be at least 1")
    gaps = _slope_gaps(model, slope_window)

    z = sample_inputs(model, m1, rng.substream(_BASE))
    eps = None
    if model.noise_scale > 0.0:
        eps = rng.substream(_NOISE).standard_normals(m1)
    fz = model.evaluate(z, noise=eps)

    acc = np.zeros((model.d, model.d))
    freeze_root = rng.substream(_FREEZE)
    redraw_root = rng.substream(_REDRAW)
    slopes = np.empty((m1, model.d))
    for j in range(m2):
        v = sample_inputs(model, m1, freeze_root.substream(j))
        redraw_j = redraw_root.substream(j)
        for i in range(model.d):
            slopes[:, i] = _slope_column(model, z, i, v[:, i], fz, gaps[i],
                                         redraw_j.substream(i), noise=eps)
        acc += _mean_outer(slopes)
    return acc / m2


class DesignSlopes:
    """The slope matrix of a noise-free pick-freeze design, gathered one
    freeze column at a time.

    Called with ``(i, v_i, f(v_i, z_-i))`` for each input, it keeps every
    first-draw pair ``(z_i, v_i)`` that clears the separation floor with its
    evaluated output and evaluates two rows for each replaced pair
    (:func:`_slope_column`); replacements draw on ``rng``.  Common-mode noise
    cannot be shared with a design whose evaluations drew their own noise,
    so a stochastic model is refused.
    """

    def __init__(self, model: Model, z: np.ndarray, fz: np.ndarray,
                 rng: RngStream, slope_window: float = DEFAULT_SLOPE_WINDOW):
        if model.noise_scale > 0.0:
            raise InputDomainError("a design's slopes need a noise-free model")
        self.model, self.z, self.fz = model, z, fz
        self.gaps = _slope_gaps(model, slope_window)
        self.redraw = rng.substream(_REDRAW)
        self.slopes = np.empty(z.shape)

    def __call__(self, i: int, v: np.ndarray, fv: np.ndarray) -> None:
        self.slopes[:, i] = _slope_column(self.model, self.z, i, v, self.fz,
                                          self.gaps[i], self.redraw.substream(i),
                                          fb=fv)

    def matrix(self) -> np.ndarray:
        return _mean_outer(self.slopes)


def design_slopes(model: Model, z: np.ndarray, fz: np.ndarray, rng: RngStream,
                  slope_window: float = DEFAULT_SLOPE_WINDOW) -> DesignSlopes | None:
    """The :class:`DesignSlopes` of a pick-freeze design with base points
    ``z`` and outputs ``fz``, or ``None`` for a stochastic model, whose
    slope matrix needs its own draws (:func:`estimate_c_gas` on ``rng``) so
    that its common-mode noise cancels."""
    if model.noise_scale > 0.0:
        return None
    return DesignSlopes(model, z, fz, rng, slope_window=slope_window)


def c_as_from_gradients(g: np.ndarray) -> np.ndarray:
    """Gradient outer-product matrix from precomputed gradient samples."""
    return _mean_outer(np.asarray(g, dtype=np.float64))


def estimate_c_as(model: Model, n: int, h: float, rng: RngStream) -> np.ndarray:
    """Monte Carlo estimate of the gradient outer-product matrix."""
    return c_as_from_gradients(gradient_matrix(model, n, h, rng))


def subspace_analysis(model: Model, kind: str, rng: RngStream, *,
                      n: int = 10_000, m2: int = 1, h: float = 1e-3,
                      threshold: float = 0.9,
                      slope_window: float = DEFAULT_SLOPE_WINDOW) -> SubspaceResult:
    """Estimate one sensitivity matrix, decompose it, and pick its rank by
    the cumulative-eigenvalue rule."""
    kind = kind.upper()
    if kind == "AS":
        matrix = estimate_c_as(model, n, h, rng)
    elif kind == "GAS":
        matrix = estimate_c_gas(model, n, m2, rng, slope_window=slope_window)
    else:
        raise InputDomainError("kind must be 'AS' or 'GAS'")
    spectrum = sym_eig(matrix)
    return SubspaceResult(kind=kind, matrix=matrix, spectrum=spectrum,
                          m_selected=select_m(spectrum, threshold))
