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
    work = np.empty((5, *a.shape))  # _rotate_round's scratch, a prefix per stack size
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
            if not rounds:
                rounds = _round_robin(d, len(live))
                scratch = work[:, :len(a)]
            for rnd in rounds:
                _rotate_round(a, vt, rnd, scratch)
    return out


@dataclass(frozen=True)
class _Round:
    """Index arrays of one round of disjoint pairs (p, q), p < q, applied to
    a stack of k matrices held as the rows of a ``(k*d, d)`` array, where
    row ``r`` is row ``r % d`` of matrix ``r // d``.  Entries are addressed
    by flat index into that array, ``row * d + column``.

    Every index i is handled as if it were the ``p`` of a pair with
    ``partner[i]``: from q's side the rotation angle changes sign, so the
    update of row q comes out of the same formulas as that of row p.
    """

    partner: np.ndarray   # (k*d,): the row of the partner index in the same matrix, r sitting out
    diagonal: np.ndarray  # (k*d,): flat index of row r's diagonal entry
    pair: np.ndarray      # (k*d,): flat index of the entry (r, partner) of row r
    facing: np.ndarray    # (k*d,): flat index of the partner's diagonal entry
    lead: np.ndarray      # (k*d,): +1 at p, -1 at q, 0 sitting out
    zeroed: np.ndarray    # flat indices of the entries (p, q) and (q, p) the round annihilates


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
    own = np.tile(np.arange(d), k)
    row = np.arange(k * d)
    diagonal = row * d + own
    rounds = []
    for column in np.tile(np.array(table), k):  # the partner's index of each row
        partner = row - own + column
        moved = np.flatnonzero(column != own)
        rounds.append(_Round(partner, diagonal, row * d + column, partner * d + column,
                             np.sign(column - own).astype(np.float64),
                             moved * d + column[moved]))
    return rounds


def _rotate_round(a: np.ndarray, vt: np.ndarray, rnd: _Round,
                  work: np.ndarray) -> None:
    """Annihilate ``a[p, q]`` for every pair of one round, in place, in
    every matrix of the stack.

    Each matrix ``A`` of ``a`` becomes ``J.T @ A @ J`` and its block of
    ``vt`` becomes ``J.T @ vt``, where ``J`` is the product of the round's
    disjoint rotations.  Only elementwise operations and indexing are used,
    never BLAS, so each row's arithmetic does not depend on the stack.
    ``work`` holds five scratch arrays of ``a``'s shape.  The round's
    scalars are gathered, and its diagonal and pair entries written, by flat
    index; the per-row factors are spread once over full rows, so every
    row update is a same-shape multiply, with the same operations in the
    same order, and the same bytes, as a broadcast one.
    """
    apq = a.take(rnd.pair)
    app = a.take(rnd.diagonal)
    diff = a.take(rnd.facing) - app
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
    ss_rows, tt_rows, step, scaled, at = work
    np.copyto(ss_rows, ss[:, None])
    np.copyto(tt_rows, (ss / (1.0 + c))[:, None])

    # row i becomes row_i + ss_i * (row_partner - tt_i * row_i): for p this is
    # row_p - s * (row_q + tau * row_p), for q row_q + s * (row_p - tau * row_q),
    # and an index with t = 0 is left exactly as it is
    def rotate_rows(rows):
        rows.take(rnd.partner, axis=0, out=step, mode="clip")  # unbuffered
        np.multiply(tt_rows, rows, out=scaled)
        np.subtract(step, scaled, out=step)
        np.multiply(step, ss_rows, out=step)
        rows += step

    d = a.shape[1]
    rotate_rows(vt)
    rotate_rows(a)
    at3 = at.reshape(-1, d, d)
    np.copyto(at3, a.reshape(-1, d, d).transpose(0, 2, 1))  # columns as rows
    rotate_rows(at)
    at.put(rnd.diagonal, app - t * apq)
    at.put(rnd.zeroed, 0.0)
    # entries between two pairs come out of the row-then-column order with
    # different rounding on each side of the diagonal; averaging restores
    # exact symmetry and leaves every other entry unchanged
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
