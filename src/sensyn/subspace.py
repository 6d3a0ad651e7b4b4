"""Gradient and finite-slope sensitivity matrices and their scores.

Two symmetric matrices are estimated here:

* the gradient outer-product matrix (AS), averaging ``grad f grad f'`` over
  sampled points, with forward-difference gradients; and
* the finite-slope matrix (GAS), a weighted mean of outer products of
  difference quotients ``(f(v_i, z_-i) - f(z)) / (v_i - z_i)`` where one
  coordinate at a time is replaced by a fresh draw.

Scores attribute subspace energy back to inputs: the score of input i over
the leading m eigenpairs is ``sum_j<=m lambda_j * u_ij**2``; at m = d it
reproduces the matrix diagonal.

Two implementation choices make the slope matrix usable beyond smooth
noise-free models:

* ``slope_window``: each quotient's (base, partner) coordinate pair follows
  the product law conditioned on a minimum separation (a fixed fraction of
  the marginal's scale), independently for each input.  Raw quotients have
  heavy tails whenever the integrand does not smooth out as the pair
  coincides (discontinuous response, evaluation noise); a separation floor
  keeps each quotient's step away from 0 while leaving multilinear slopes
  untouched and quadratic second moments, off the diagonal too, exactly
  unbiased under normal marginals (the pair sum is independent of the pair
  gap).  Every base coordinate is kept, so the base evaluation f(z) stays
  shared by the d quotients of a row; a first partner inside the window is
  redrawn from the law of the partner given its base and the separation
  (one uniform, a closed-form inverse CDF), and input i's quotients are
  weighted by ``w_i = P(separated | z_i)``, with each matrix entry
  self-normalized (:class:`SlopeSample`; importance sampling, Owen 2013,
  *Monte Carlo theory, methods and examples*, ch. 9).  A redrawn partner
  costs no extra row where its column is evaluated after the redraw
  (:func:`slope_vectors`) and one row where the column was evaluated at
  the first draw (:class:`DesignSlopes`); there are no redraw rounds.  The
  weighted matrix need not be PSD; :func:`psd_spectrum` clamps the
  spectrum the scores read.
* evaluation noise is drawn once per replicate and shared by the replicate's
  evaluations, so common-mode noise cancels inside each difference quotient.
  This is what keeps the slope matrix stable on stochastic models while
  derivative measures degrade.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgsm import gradient_matrix
from .errors import EmptySlopeWindowError, InputDomainError
from .linalg import JACOBI_TOL, SpectralDecomposition, select_m, sym_eig
from .models import Model, sample_inputs
from .randkit import (InputDistribution, Normal, RngStream, Uniform, normal_cdf,
                      normal_inv_cdf)

DEFAULT_SLOPE_WINDOW = 0.35
_COINCIDENT_TOL = 1e-12
_CHUNK = 4096
# coordinates per weight chunk and pairs per partner-redraw group: a normal
# block's two tails, 8,192 values, keep normal_cdf's temporaries in cache
# (37 ns a value on a 2-vCPU Xeon, 55-60 ns from 16,384 values up)
_BLOCK = 4096

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


def _mean_outer(d_mat: np.ndarray) -> np.ndarray:
    """(1/n) * sum of row outer products, accumulated in a fixed order.

    Chunked einsum keeps the reduction off multithreaded BLAS paths so the
    result is bitwise reproducible across thread counts.
    """
    n, d = d_mat.shape
    acc = np.zeros((d, d))
    for start in range(0, n, _CHUNK):
        block = d_mat[start:start + _CHUNK]
        acc += np.einsum("ni,nj->ij", block, block)
    return acc / n


def _separated_mass(dist: InputDistribution, a: np.ndarray,
                    gap) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities that a draw b of ``dist`` lies below ``a - gap`` and
    above ``a + gap``, for each base coordinate in ``a``.  ``dist`` may
    stand for several columns of ``a`` with one law: ``gap`` then holds
    their gaps."""
    if isinstance(dist, Uniform):
        below = np.maximum(a - gap - dist.lower, 0.0)
        above = np.maximum(dist.upper - gap - a, 0.0)
        below /= dist.scale
        above /= dist.scale
        return below, above
    if isinstance(dist, Normal):
        both = np.empty((2,) + np.shape(a))  # one normal_cdf call for both tails
        np.subtract(a, dist.mu, out=both[0])
        both[0] /= dist.sigma  # s
        g = gap / dist.sigma
        np.negative(both[0], out=both[1])
        both -= g  # s - g, -s - g
        below, above = normal_cdf(both)
        return below, above
    raise InputDomainError(f"no separated pair law for marginal {dist!r}")


def _runs(marginals) -> list[tuple[InputDistribution, int, int]]:
    """``(law, start, stop)`` of each maximal run of consecutive inputs with
    one marginal law."""
    runs = []
    for i, dist in enumerate(marginals):
        if runs and runs[-1][0] == dist:
            runs[-1][2] = i + 1
        else:
            runs.append([dist, i, i + 1])
    return [tuple(run) for run in runs]


def _pair_weights(runs, gaps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The weights ``w_i = P(|b - z_i| >= gap_i)`` of the base rows ``z``,
    one pass over the block per run of inputs with one marginal law."""
    w = np.empty(z.shape)
    for dist, lo, hi in runs:
        below, above = _separated_mass(dist, z[:, lo:hi], gaps[lo:hi])
        below += above
        w[:, lo:hi] = below
    return w


def _partners(dist: InputDistribution, a: np.ndarray, gap: float,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partners b of the base coordinates ``a``, each from the law of b given
    a and ``|b - a| >= gap`` by inverting its CDF at one uniform of ``u``,
    and each base's weight ``P(|b - a| >= gap)``.

    The admissible set is ``b <= a - gap`` (mass ``below``) and
    ``b >= a + gap`` (mass ``above``); ``u * (below + above)`` is the mass
    left of b, and on the upper segment ``(1 - u) * (below + above)`` the
    mass right of it, so each tail keeps its full relative precision.  A
    uniform base with no admissible partner (``gap`` above half the width,
    ``a`` central) gets weight 0 and an arbitrary b.
    """
    below, above = _separated_mass(dist, a, gap)
    mass = below + above
    low = u * mass < below
    tail = np.where(low, u, 1.0 - u)
    tail *= mass  # the mass beyond b, on b's side
    if isinstance(dist, Uniform):
        x = dist.scale * tail
        return np.where(low, dist.lower + x, dist.upper - x), mass
    x = dist.sigma * normal_inv_cdf(tail)
    return np.where(low, dist.mu + x, dist.mu - x), mass


def _slope_gaps(model: Model, slope_window: float) -> np.ndarray:
    """Separation floor of the (base, freeze) pairs of each input."""
    if not 0.0 <= slope_window < 0.9:
        raise InputDomainError("slope_window must lie in [0, 0.9)")
    return np.array([max(slope_window * dist.scale, _COINCIDENT_TOL * dist.scale)
                     for dist in model.marginals])


class _PartnerRedraws:
    """The partner redraws of one freeze vector or design, input by input.

    :meth:`add` notes the rows of input i whose first pair lies inside the
    window; inputs come in order.  The noted inputs are redrawn together,
    with one :func:`_partners` call, once they hold ``_BLOCK`` pairs or
    more, before an input with another marginal law, and after the last
    input: a small design makes one call per run of inputs with one law,
    and a large one holds little more than one input's pairs.  Input i's
    uniforms are one ``uniforms`` call on ``rng.substream(i)``.

    The grouping pays: redrawing each input on its own gave the same bytes,
    but in 6 alternating 20 s ``bench/run.py`` pairs its median ``cpu_norm``
    rose 3.3 % on bounds-all (3.435 to 3.550) and 4.5 % on highdim-spectrum
    (3.191 to 3.336), worse in 4 of 6 pairs on each.
    """

    def __init__(self, model: Model, z: np.ndarray, gaps: np.ndarray,
                 rng: RngStream):
        self.marginals, self.z, self.gaps, self.rng = model.marginals, z, gaps, rng
        self.pending = []

    def add(self, i: int, rows: np.ndarray) -> list:
        """``(i, rows, b, mass)`` for each input redrawn by this call (see
        :func:`_partners`), in input order; none while the group is open."""
        self.pending.append((i, rows))
        size = sum(r.size for _, r in self.pending)
        if (size < _BLOCK and i + 1 < len(self.marginals)
                and self.marginals[i + 1] == self.marginals[i]):
            return []
        pending, self.pending = self.pending, []
        counts = [r.size for _, r in pending]
        b = mass = np.empty(0)
        if size:
            cols = np.repeat([j for j, _ in pending], counts)
            rows = np.concatenate([r for _, r in pending])
            u = np.concatenate([self.rng.substream(j).uniforms(r.size)
                                for j, r in pending if r.size])
            b, mass = _partners(self.marginals[i], self.z[rows, cols],
                                self.gaps[cols], u)
        cuts = np.cumsum(counts)[:-1]
        return [(j, r, b_j, mass_j) for (j, r), b_j, mass_j
                in zip(pending, np.split(b, cuts), np.split(mass, cuts))]


def _quotients(model: Model, z: np.ndarray, i: int, b: np.ndarray,
               fz: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """Quotients ``(f(b, z_-i) - f(z)) / (b - z_i)`` at the points ``z`` with
    outputs ``fz``, in one call; ``noise``: the rows' common-mode noise."""
    diff = model.evaluate_column(z, i, b, noise=noise) - fz
    diff /= b - z[:, i]
    return diff


class SlopeSample:
    """Difference quotients ``slopes[r, i]`` at base points ``z[r]``, with the
    importance weights of their pairs.

    Quotient i of row r pairs the base coordinate ``z[r, i]`` with a partner
    drawn from the law of b given that base and the slope window
    (:func:`_partners`), so its pair law differs from the separated product
    law by the factor ``w_i = P(|b - z_i| >= gap_i)``.  The matrix weights
    input i's quotients by ``w_i`` and self-normalizes entry by entry:
    ``sum w_i q_i**2 / sum w_i`` on the diagonal and
    ``sum w_i w_j q_i q_j / sum w_i w_j`` off it (Owen 2013, *Monte Carlo
    theory, methods and examples*, ch. 9).  Unless ``weights`` holds them,
    the weights are computed from ``z`` one chunk of about 4,096
    coordinates at a time (1,024 rows at d = 4), so no (n, d) weight array
    is held.
    """

    def __init__(self, model: Model, z: np.ndarray, slopes: np.ndarray,
                 slope_window: float, weights: np.ndarray | None = None):
        self.model, self.z, self.slopes = model, z, slopes
        self.slope_window = slope_window
        self.gaps = _slope_gaps(model, slope_window)
        self.runs = _runs(model.marginals)
        self.weights = weights

    def _chunks(self, stop: int):
        """``(slopes, weights)`` of the first ``stop`` rows, one chunk of
        about ``_BLOCK`` coordinates at a time, in a fixed order."""
        step = max(1, _BLOCK // self.z.shape[1])
        for start in range(0, stop, step):
            end = min(start + step, stop)
            w = (_pair_weights(self.runs, self.gaps, self.z[start:end])
                 if self.weights is None else self.weights[start:end])
            yield self.slopes[start:end], w

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """``(num, den)``: the weighted sums that :meth:`matrix` divides
        entry by entry."""
        d = self.z.shape[1]
        num, den = np.zeros((d, d)), np.zeros((d, d))
        num_ii, den_ii = np.zeros(d), np.zeros(d)
        for q, w in self._chunks(len(self.z)):
            wq = w * q
            num += np.einsum("ni,nj->ij", wq, wq)
            num_ii += np.einsum("ni,ni->i", wq, q)
            den += np.einsum("ni,nj->ij", w, w)
            den_ii += np.einsum("ni->i", w)
        np.fill_diagonal(num, num_ii)
        np.fill_diagonal(den, den_ii)
        return num, den

    def matrix(self) -> np.ndarray:
        """The self-normalized slope matrix."""
        return _normalized(*self.sums(), self.slope_window, len(self.z))

    def diagonal(self, rows: int | None = None) -> np.ndarray:
        """The diagonal of the matrix of the first ``rows`` rows (default:
        all), which needs only each input's own weights to be nonzero."""
        rows = len(self.z) if rows is None else rows
        d = self.z.shape[1]
        num, den = np.zeros(d), np.zeros(d)
        for q, w in self._chunks(rows):
            num += np.einsum("ni,ni->i", w * q, q)
            den += np.einsum("ni->i", w)
        return _normalized(num, den, self.slope_window, rows)


def _normalized(num: np.ndarray, den: np.ndarray, slope_window: float, n: int) -> np.ndarray:
    if not den.all():
        raise EmptySlopeWindowError(
            f"none of {n} base points has an admissible slope partner for "
            f"some input (or pair of inputs) at slope window {slope_window:g}: "
            f"use a smaller --slope-window or a larger sample")
    return num / den


def slope_vectors(model: Model, m1: int, m2: int, rng: RngStream,
                  slope_window: float = DEFAULT_SLOPE_WINDOW):
    """Yield, for each of ``m2`` fresh freeze vectors, the
    :class:`SlopeSample` of the ``m1`` base points drawn on ``rng``.

    Row r of every sample belongs to base point r, and the rows of one
    sample are i.i.d., so any prefix of them is a sample of the same law.
    One base evaluation is shared by the d quotients of a freeze vector:
    d+1 calls and m1 * (d+1) rows, whatever the window, because the
    partners inside the window are redrawn, a group of inputs at a time
    (:class:`_PartnerRedraws`), before their columns are evaluated (a base
    with no admissible partner is left out of its column).  With ``m2 > 1``
    the samples share one array of the base points' weights.  Stochastic
    models draw one noise variate per base point, shared by all of its
    evaluations.  Substreams of ``rng``: 0 the base, 1 the freeze vectors
    (child j), 2 the noise and 3 the redraws (child j, then child i).
    """
    if m1 < 1 or m2 < 1:
        raise InputDomainError("sample sizes m1 and m2 must be at least 1")
    gaps = _slope_gaps(model, slope_window)
    runs = _runs(model.marginals)

    z = sample_inputs(model, m1, rng.substream(_BASE))
    eps = None
    if model.noise_scale > 0.0:
        eps = rng.substream(_NOISE).standard_normals(m1)
    fz = model.evaluate(z, noise=eps)
    weights = None
    if m2 > 1:
        step = max(1, _BLOCK // model.d)
        weights = np.concatenate([_pair_weights(runs, gaps, z[s:s + step])
                                  for s in range(0, m1, step)])

    freeze_root = rng.substream(_FREEZE)
    redraw_root = rng.substream(_REDRAW)
    for j in range(m2):
        v = sample_inputs(model, m1, freeze_root.substream(j))
        redraws = _PartnerRedraws(model, z, gaps, redraw_root.substream(j))
        slopes = np.empty((m1, model.d))
        for i in range(model.d):
            near = np.flatnonzero(np.abs(v[:, i] - z[:, i]) < gaps[i])
            for k, rows, b, mass in redraws.add(i, near):
                v[rows, k] = b
                live = slice(None)  # every row, in place
                if not mass.all():  # a base with no admissible partner gets no row
                    live = np.ones(m1, dtype=bool)
                    live[rows[mass == 0.0]] = False
                    slopes[:, k] = 0.0
                slopes[live, k] = _quotients(model, z[live], k, v[live, k], fz[live],
                                             None if eps is None else eps[live])
        yield SlopeSample(model, z, slopes, slope_window, weights)


def estimate_c_gas(model: Model, m1: int, m2: int, rng: RngStream,
                   slope_window: float = DEFAULT_SLOPE_WINDOW) -> np.ndarray:
    """Monte Carlo estimate of the finite-slope sensitivity matrix.

    Weighs the quotients of ``m1`` base points, each paired with ``m2``
    fresh freeze vectors (:func:`slope_vectors`, which states the cost), as
    :class:`SlopeSample` does; the weights depend on the base points only,
    so every freeze vector has the same weight sums.
    """
    for j, sample in enumerate(slope_vectors(model, m1, m2, rng, slope_window)):
        part, den = sample.sums()
        num = part if j == 0 else num + part
    return _normalized(num / m2, den, slope_window, m1)


class DesignSlopes(SlopeSample):
    """The slope matrix of a noise-free pick-freeze design, gathered one
    freeze column at a time.

    Called with ``(i, v_i, f(v_i, z_-i))`` for each input in turn, it
    keeps the quotient of every first-draw pair ``(z_i, v_i)`` that clears
    the separation floor and notes the others.  Their partners are redrawn
    a group of inputs at a time (:class:`_PartnerRedraws`, on ``rng``), and
    each input's redrawn rows are evaluated in one call: a redrawn pair
    costs one row, and a base with no admissible partner none (its
    quotient is 0).  The matrix is weighted as in :class:`SlopeSample`.
    Common-mode noise cannot be shared with a design whose evaluations drew
    their own noise, so a stochastic model is refused.
    """

    def __init__(self, model: Model, z: np.ndarray, fz: np.ndarray,
                 rng: RngStream, slope_window: float = DEFAULT_SLOPE_WINDOW):
        if model.noise_scale > 0.0:
            raise InputDomainError("a design's slopes need a noise-free model")
        super().__init__(model, z, np.empty(z.shape), slope_window)
        self.fz = fz
        self.redraws = _PartnerRedraws(model, z, self.gaps, rng.substream(_REDRAW))

    def __call__(self, i: int, v: np.ndarray, fv: np.ndarray) -> None:
        step = v - self.z[:, i]
        near = np.flatnonzero(np.abs(step) < self.gaps[i])
        step[near] = 1.0  # their quotients are set once redrawn
        np.divide(fv - self.fz, step, out=self.slopes[:, i])
        for k, rows, b, mass in self.redraws.add(i, near):
            live = mass > 0.0
            self.slopes[rows[~live], k] = 0.0
            if live.any():
                rows = rows[live]
                x = self.z.take(rows, axis=0)
                self.slopes[rows, k] = _quotients(self.model, x, k, b[live], self.fz[rows], None)


def psd_spectrum(matrix: np.ndarray) -> SpectralDecomposition | list[SpectralDecomposition]:
    """Eigendecomposition of a slope matrix with every eigenvalue below
    :func:`~sensyn.linalg.sym_eig`'s resolution set to 0.

    The self-normalized entries of :class:`SlopeSample` are divided by
    different weight sums, so the matrix need not be PSD.  Where the true
    matrix is singular (the linear inputs of example1 and example4) its
    smallest eigenvalue comes out slightly negative, about 1e-6 to 1e-4 of
    the largest at n = 50,000 to 1,000, and a rank-one linear map's second
    eigenvalue is round-off.  Eigenvalues below the solver's stopping
    tolerance, ``JACOBI_TOL * ||C||_F``, are therefore set to 0: for the
    negative ones this is the spectrum of the nearest PSD matrix in the
    Frobenius norm.  Scores then stay nondecreasing in m, and at m = d they
    read that matrix's diagonal, which exceeds the estimated one by at most
    the clamped mass.

    A ``(k, d, d)`` stack gives a list of k spectra, as it does for
    :func:`~sensyn.linalg.sym_eig`.
    """
    spectra = sym_eig(matrix)
    if isinstance(spectra, SpectralDecomposition):
        return _clamped(spectra)
    return [_clamped(spec) for spec in spectra]


def _clamped(spec: SpectralDecomposition) -> SpectralDecomposition:
    lam = spec.eigenvalues
    floor = JACOBI_TOL * np.sqrt(np.sum(lam * lam))
    return SpectralDecomposition(np.where(lam < floor, 0.0, lam), spec.eigenvectors)


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
    spectrum = sym_eig(matrix) if kind == "AS" else psd_spectrum(matrix)
    return SubspaceResult(kind=kind, matrix=matrix, spectrum=spectrum,
                          m_selected=select_m(spectrum, threshold))
