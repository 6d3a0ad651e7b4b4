"""Dense symmetric eigendecomposition and spectrum utilities.

The solver is a Jacobi iteration in round-robin (parallel) order, after
Brent & Luk (1985): each round rotates ``d // 2`` disjoint index pairs at
once with elementwise numpy.  The sensitivity matrices handled here are small
(d <= a few hundred); Jacobi delivers high relative accuracy, and with no
BLAS call in the rotation loop its bytes do not depend on the platform's BLAS
or on its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSpectrumError, EigenNotConvergedError,
                     InputDomainError)

# sym_eig stops once the off-diagonal norm is below this share of ||a||_F
JACOBI_TOL = 1e-14


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order with matched orthonormal eigenvectors.

    ``eigenvectors[:, j]`` pairs with ``eigenvalues[j]``.  Each eigenvector
    is sign-fixed so that its largest-magnitude component is positive (first
    such index on ties), which keeps repeated runs and cross-method plots
    comparable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def sym_eig(a, *, max_sweeps: int = 100) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    A sweep is ``d - 1`` rounds (``d`` for odd ``d``, when one index sits
    each round out) in which every pair (p, q) is rotated exactly once.  The
    iteration stops when the off-diagonal Frobenius norm, checked once per
    sweep, falls below ``JACOBI_TOL * ||a||_F``.  Raises
    :class:`InputDomainError` for non-finite or asymmetric input and
    :class:`EigenNotConvergedError` when ``max_sweeps`` sweeps do not reach
    that threshold.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputDomainError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise InputDomainError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise InputDomainError("matrix must be exactly symmetric")

    d = a.shape[0]
    vt = np.eye(d)  # eigenvectors as rows, so that rotations touch contiguous rows
    if d == 1:
        return _finalize(np.array([a[0, 0]]), vt)

    # elementwise, not np.linalg.norm: its BLAS dot is threaded on large inputs
    norm = np.sqrt(np.sum(a * a))
    if norm == 0.0:
        return _finalize(np.zeros(d), vt)
    stop = JACOBI_TOL * norm

    rounds = _round_robin(d)
    # the angle formulas run on every pair of a round, including those that
    # take the zero or tiny-angle branch, where they divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(max_sweeps + 1):
            off = np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2))
            if off <= stop:
                break
            if sweep == max_sweeps:
                raise EigenNotConvergedError(
                    f"Jacobi eigensolver did not converge for d={d}: off-diagonal "
                    f"norm {off:.6g} is above the threshold {stop:.6g} after "
                    f"{max_sweeps} sweeps")
            for rnd in rounds:
                _rotate_round(a, vt, rnd)

    return _finalize(np.diag(a).copy(), vt.T)


@dataclass(frozen=True)
class _Round:
    """Index arrays of one round of disjoint pairs (p, q), p < q.

    Every index i is handled as if it were the ``p`` of a pair with
    ``partner[i]``: from q's side the rotation angle changes sign, so the
    update of row q comes out of the same formulas as that of row p.
    """

    index: np.ndarray    # (d, 1): 0 .. d-1, for per-index gathers
    partner: np.ndarray  # (d,): partner[p] = q, partner[q] = p, i for an index sitting out
    column: np.ndarray   # (d, 1): partner as a column
    lead: np.ndarray     # (d, 1): +1 at p, -1 at q, 0 sitting out
    pairs: tuple         # (p then q, q then p): the entries the round annihilates


def _round_robin(d: int) -> list[_Round]:
    """One sweep's rounds, by the circle method.

    Seat 0 stays while the other seats move on by one each round, so every
    pair p < q meets exactly once in ``m - 1`` rounds, ``m = d`` rounded up to
    even; for odd ``d`` the index paired with the phantom ``d`` sits out.
    """
    m = d + d % 2
    seats = list(range(m))
    index = np.arange(d)[:, None]
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(x, y), max(x, y)) for x, y in zip(seats[: m // 2], seats[::-1][: m // 2])]
        p = np.array([lo for lo, hi in pairs if hi < d])
        q = np.array([hi for lo, hi in pairs if hi < d])
        partner = np.arange(d)
        partner[p] = q
        partner[q] = p
        lead = np.zeros((d, 1))
        lead[p] = 1.0
        lead[q] = -1.0
        rounds.append(_Round(index, partner, partner[:, None], lead,
                             (np.concatenate((p, q)), np.concatenate((q, p)))))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return rounds


def _rotate_round(a: np.ndarray, vt: np.ndarray, rnd: _Round) -> None:
    """Annihilate ``a[p, q]`` for every pair of one round, in place.

    ``a`` becomes ``J.T @ a @ J`` and ``vt`` becomes ``J.T @ vt``, where
    ``J`` is the product of the round's disjoint rotations.  Only elementwise
    operations and indexing are used, never BLAS.
    """
    i, j = rnd.index, rnd.column
    apq = a[i, j]
    app = a[i, i]
    diff = a[j, j] - app
    theta = diff / (2.0 * apq)
    t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    # theta = 0: 45 degrees, t = 1 seen from p; no rotation for an index sitting out
    t = np.where(theta == 0.0, rnd.lead, t)
    tiny = np.abs(apq) < 1e-36 * np.abs(diff)  # rotation angle below round-off
    if tiny.any():
        t[tiny] = apq[tiny] / diff[tiny]
    t[apq == 0.0] = 0.0  # already zero: the identity rotation
    c = 1.0 / np.sqrt(t * t + 1.0)
    ss = -t * c
    tt = ss / (1.0 + c)

    # row i becomes row_i + ss_i * (row_partner - tt_i * row_i): for p this is
    # row_p - s * (row_q + tau * row_p), for q row_q + s * (row_p - tau * row_q),
    # and an index with t = 0 is left exactly as it is
    def rotate_rows(rows):
        step = rows[rnd.partner]
        step -= tt * rows
        step *= ss
        rows += step

    rotate_rows(vt)
    rotate_rows(a)
    at = a.T.copy()  # the columns, as contiguous rows
    rotate_rows(at)
    at[i, i] = app - t * apq
    at[rnd.pairs] = 0.0
    # entries between two pairs come out of the row-then-column order with
    # different rounding on each side of the diagonal; averaging restores
    # exact symmetry and leaves every other entry unchanged
    np.add(at, at.T, out=a)
    a *= 0.5


def _finalize(values: np.ndarray, vectors: np.ndarray) -> SpectralDecomposition:
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            vectors[:, j] = -col
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SpectralDecomposition(values, vectors)


def normalized_cumsum(spec: SpectralDecomposition) -> np.ndarray:
    """Running eigenvalue share: entry m-1 is sum(lambda_1..m) / sum(all).

    Eigenvalues that are tiny and negative (round-off of a PSD matrix) are
    clamped to zero so the result is nondecreasing with final entry 1.
    """
    lam = np.maximum(spec.eigenvalues, 0.0)
    total = lam.sum()
    if total <= 0.0:
        raise DegenerateSpectrumError("all-zero spectrum has no normalized cumulative sum")
    cs = np.cumsum(lam)
    return cs / cs[-1]


def select_m(spec: SpectralDecomposition, threshold: float = 0.9) -> int:
    """Smallest m whose normalized cumulative eigenvalue sum strictly exceeds
    ``threshold``; m = d always qualifies for a nonzero spectrum."""
    if not 0.0 <= threshold < 1.0:
        raise InputDomainError("threshold must lie in [0, 1)")
    cs = normalized_cumsum(spec)
    above = np.nonzero(cs > threshold)[0]
    return int(above[0]) + 1
