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


def sym_eig(a, *, max_sweeps: int = 100) -> SpectralDecomposition | list[SpectralDecomposition]:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    A sweep is ``d - 1`` rounds (``d`` for odd ``d``, when one index sits
    each round out) in which every pair (p, q) is rotated exactly once.  The
    iteration stops when the off-diagonal Frobenius norm, checked once per
    sweep, falls below ``JACOBI_TOL * ||a||_F``.  Raises
    :class:`InputDomainError` for non-finite or asymmetric input and
    :class:`EigenNotConvergedError` when ``max_sweeps`` sweeps do not reach
    that threshold.

    A ``(k, d, d)`` stack gives a list of k decompositions from one pass:
    every round rotates all matrices still in the stack, and each leaves it
    at the sweep where it would have stopped alone, so each decomposition
    is byte-identical to that of its matrix on its own.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise InputDomainError("expected a square matrix or a stack of them")
    if not np.all(np.isfinite(a)):
        raise InputDomainError("matrix entries must be finite")
    if not np.array_equal(a, np.swapaxes(a, -2, -1)):
        raise InputDomainError("matrix must be exactly symmetric")
    spectra = _jacobi(a.reshape(-1, *a.shape[-2:]), max_sweeps)
    return spectra if a.ndim == 3 else spectra[0]


def _jacobi(stack: np.ndarray, max_sweeps: int) -> list[SpectralDecomposition]:
    """Decompose each matrix of a ``(k, d, d)`` stack, in stack order."""
    d = stack.shape[1]
    if d == 1:
        return [_finalize(np.array([m[0, 0]]), np.eye(1)) for m in stack]

    # elementwise, not np.linalg.norm: its BLAS dot is threaded on large inputs
    stops = JACOBI_TOL * np.sqrt(np.sum(stack * stack, axis=(1, 2)))
    out: list = [_finalize(np.zeros(d), np.eye(d)) if stop == 0.0 else None
                 for stop in stops]
    live = np.flatnonzero(stops > 0.0)  # stack positions still rotating
    # the rows of every live matrix, one matrix after another; eigenvectors
    # as rows, so that rotations touch contiguous rows
    a = stack[live].reshape(-1, d)
    vt = np.tile(np.eye(d), (len(live), 1))
    rounds = []
    # the angle formulas run on every pair of a round, including those that
    # take the zero or tiny-angle branch, where they divide by zero or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep in range(max_sweeps + 1):
            a3 = a.reshape(-1, d, d)
            off = np.sqrt(2.0 * np.sum(np.tril(a3, -1) ** 2, axis=(1, 2)))
            done = off <= stops[live]
            if done.any():
                vt3 = vt.reshape(-1, d, d)
                for j in np.flatnonzero(done):
                    out[live[j]] = _finalize(np.diag(a3[j]).copy(), vt3[j].T)
                live, off = live[~done], off[~done]
                a = a3[~done].reshape(-1, d)
                vt = vt3[~done].reshape(-1, d)
                rounds = []  # their index arrays are for the larger stack
            if not len(live):
                break
            if sweep == max_sweeps:
                raise EigenNotConvergedError(
                    f"Jacobi eigensolver did not converge for d={d}: off-diagonal "
                    f"norm {off[0]:.6g} is above the threshold {stops[live[0]]:.6g} "
                    f"after {max_sweeps} sweeps")
            rounds = rounds or _round_robin(d, len(live))
            for rnd in rounds:
                _rotate_round(a, vt, rnd)
    return out


@dataclass(frozen=True)
class _Round:
    """Index arrays of one round of disjoint pairs (p, q), p < q, applied to
    a stack of k matrices held as the rows of a ``(k*d, d)`` array, where
    row ``r`` is row ``r % d`` of matrix ``r // d``.

    Every index i is handled as if it were the ``p`` of a pair with
    ``partner[i]``: from q's side the rotation angle changes sign, so the
    update of row q comes out of the same formulas as that of row p.
    """

    row: np.ndarray      # (k*d, 1): 0 .. k*d-1, for per-row gathers
    index: np.ndarray    # (k*d, 1): r % d, the column of row r's diagonal entry
    partner: np.ndarray  # (k*d,): the row of the partner index in the same matrix, r sitting out
    partner_row: np.ndarray  # (k*d, 1): partner as a column
    column: np.ndarray   # (k*d, 1): the partner's index, partner % d
    lead: np.ndarray     # (k*d, 1): +1 at p, -1 at q, 0 sitting out
    pairs: tuple         # (rows, columns) of the entries (p, q) and (q, p) the round annihilates


def _round_robin(d: int, k: int) -> list[_Round]:
    """One sweep's rounds for a stack of k matrices, by the circle method.

    Seat 0 stays while the other seats move on by one each round, so every
    pair p < q meets exactly once in ``m - 1`` rounds, ``m = d`` rounded up to
    even; for odd ``d`` the index paired with the phantom ``d`` sits out.
    """
    m = d + d % 2
    seats = list(range(m))
    table = []  # per round, the partner of each index
    for _ in range(m - 1):
        partner = list(range(d))
        for x, y in zip(seats[: m // 2], seats[::-1][: m // 2]):
            if max(x, y) < d:
                partner[x], partner[y] = y, x
        table.append(partner)
        seats = [seats[0], seats[-1]] + seats[1:-1]
    own = np.arange(d)
    partner = np.array(table)
    lead = np.tile(np.sign(partner - own).astype(np.float64), k)
    rows = (np.arange(0, k * d, d)[:, None] + partner[:, None, :]).reshape(m - 1, k * d)
    column = np.tile(partner, k)
    moved = np.nonzero(column != np.tile(own, k))[1].reshape(m - 1, -1)
    row, index = np.arange(k * d)[:, None], np.tile(own, k)[:, None]
    return [_Round(row, index, rows[r], rows[r][:, None], column[r][:, None],
                   lead[r][:, None], (moved[r], column[r][moved[r]]))
            for r in range(m - 1)]


def _rotate_round(a: np.ndarray, vt: np.ndarray, rnd: _Round) -> None:
    """Annihilate ``a[p, q]`` for every pair of one round, in place, in
    every matrix of the stack.

    Each matrix ``A`` of ``a`` becomes ``J.T @ A @ J`` and its block of
    ``vt`` becomes ``J.T @ vt``, where ``J`` is the product of the round's
    disjoint rotations.  Only elementwise operations and indexing are used,
    never BLAS, so each row's arithmetic does not depend on the stack.
    """
    apq = a[rnd.row, rnd.column]
    app = a[rnd.row, rnd.index]
    diff = a[rnd.partner_row, rnd.column] - app
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

    d = a.shape[1]
    rotate_rows(vt)
    rotate_rows(a)
    at = a.reshape(-1, d, d).transpose(0, 2, 1).copy().reshape(-1, d)  # columns as rows
    rotate_rows(at)
    at[rnd.row, rnd.index] = app - t * apq
    at[rnd.pairs] = 0.0
    # entries between two pairs come out of the row-then-column order with
    # different rounding on each side of the diagonal; averaging restores
    # exact symmetry and leaves every other entry unchanged
    at3 = at.reshape(-1, d, d)
    np.add(at3, at3.transpose(0, 2, 1), out=a.reshape(-1, d, d))
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
