"""Jacobi eigensolver and spectrum utilities."""

import numpy as np
import pytest

from sensyn import (DegenerateSpectrumError, EigenNotConvergedError,
                    InputDomainError, SensynError, SpectralDecomposition,
                    normalized_cumsum, select_m, sym_eig)
from sensyn.linalg import _round_robin
from sensyn.subspace import psd_spectrum


def random_symmetric(rng, d):
    raw = rng.uniform(-1.0, 1.0, size=(d, d))
    return (raw + raw.T) / 2.0


def random_psd(rng, d):
    raw = rng.normal(size=(d, d // 2 + 1))
    a = raw @ raw.T
    return (a + a.T) / 2.0


def assert_decomposes(a, spec):
    """Scaled reconstruction, orthogonality, order and sign convention."""
    d = len(a)
    vec, lam = spec.eigenvectors, spec.eigenvalues
    scale = max(np.max(np.abs(lam)), 1.0)
    assert np.max(np.abs((vec * lam) @ vec.T - a)) <= 1e-10 * scale
    assert np.max(np.abs(vec.T @ vec - np.eye(d))) <= 1e-10
    assert np.all(np.diff(lam) <= 0.0)
    lead = np.argmax(np.abs(vec), axis=0)
    assert np.all(vec[lead, np.arange(d)] > 0.0)


class TestSymEig:
    def test_identity(self):
        spec = sym_eig(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        spec = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(spec.eigenvectors), np.eye(2),
                                   atol=1e-14)

    def test_hand_two_by_two(self):
        spec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(spec.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(np.abs(spec.eigenvectors[:, 1]), [s, s],
                                   atol=1e-12)
        # reconstruction confirms the hand calculation
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        np.testing.assert_allclose(rebuilt, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_random_matrices_reconstruct(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(2, 13))
            a = random_symmetric(rng, d)
            spec = sym_eig(a)
            lam1 = max(abs(spec.eigenvalues[0]), 1.0)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
            assert np.max(np.abs(rebuilt - a)) <= 1e-10 * lam1
            gram = spec.eigenvectors.T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_deterministic(self):
        a = random_symmetric(np.random.default_rng(5), 8)
        s1 = sym_eig(a)
        s2 = sym_eig(a)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = rng.normal(size=6)
            spec = sym_eig(np.outer(c, c))
            assert spec.eigenvalues[0] == pytest.approx(c @ c, abs=1e-10)
            unit = c / np.linalg.norm(c)
            lead = np.argmax(np.abs(unit))
            if unit[lead] < 0:
                unit = -unit
            np.testing.assert_allclose(spec.eigenvectors[:, 0], unit, atol=1e-8)

    def test_sign_convention(self):
        spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # both eigenvectors have equal-magnitude components; the first one
        # (lowest index among maxima) must be positive
        assert spec.eigenvectors[0, 0] > 0
        assert spec.eigenvectors[0, 1] > 0

    @pytest.mark.parametrize("d", [2, 3, 50, 100, 101])
    @pytest.mark.parametrize("make", [random_symmetric, random_psd])
    def test_round_robin_even_and_odd(self, make, d):
        a = make(np.random.default_rng(d), d)
        assert_decomposes(a, sym_eig(a))

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 10, 11])
    def test_schedule_meets_every_pair_once(self, d):
        met = []
        for rnd in _round_robin(d, 1):
            partner = rnd.partner
            np.testing.assert_array_equal(partner[partner], np.arange(d))  # disjoint
            assert np.sum(partner != np.arange(d)) == 2 * (d // 2)
            met += [(i, int(j)) for i, j in enumerate(partner) if i < j]
        assert sorted(met) == [(i, j) for i in range(d) for j in range(i + 1, d)]

    def test_block_diagonal_skips_zero_pairs(self):
        rng = np.random.default_rng(4)
        a = np.zeros((9, 9))
        a[:4, :4] = random_symmetric(rng, 4)
        a[4:, 4:] = random_symmetric(rng, 5)
        # the first round pairs 1-8, 2-7 and 3-6 across the blocks: with
        # equal diagonals there, a[p, q] = 0 is the only thing that keeps
        # those pairs from a 45-degree rotation
        for p, q in ((1, 8), (2, 7), (3, 6)):
            a[q, q] = a[p, p]
        spec = sym_eig(a)
        assert_decomposes(a, spec)
        # no rotation couples the blocks, so every eigenvector lives in one
        vec = spec.eigenvectors
        assert np.all((vec[:4] == 0.0).all(axis=0) | (vec[4:] == 0.0).all(axis=0))

    def test_repeated_eigenvalues(self):
        c = np.random.default_rng(6).normal(size=12)
        a = np.eye(12) + np.outer(c, c)
        spec = sym_eig(a)
        assert_decomposes(a, spec)
        assert spec.eigenvalues[0] == pytest.approx(1.0 + c @ c, rel=1e-12)
        np.testing.assert_allclose(spec.eigenvalues[1:], 1.0, atol=1e-12)

    def test_diagonal_input_needs_no_sweep(self):
        a = np.diag([0.5, -2.0, 3.0, 0.5, 1.0])
        spec = sym_eig(a, max_sweeps=0)
        np.testing.assert_array_equal(spec.eigenvalues, [3.0, 1.0, 0.5, 0.5, -2.0])
        np.testing.assert_array_equal(spec.eigenvectors, np.eye(5)[:, [2, 4, 0, 3, 1]])

    def test_sweep_budget_exhausted_raises(self):
        a = random_symmetric(np.random.default_rng(10), 10)
        with pytest.raises(EigenNotConvergedError) as info:
            sym_eig(a, max_sweeps=1)
        assert isinstance(info.value, SensynError)
        message = str(info.value)
        assert "d=10" in message and "after 1 sweeps" in message
        assert "off-diagonal norm" in message and "threshold" in message

    def test_input_validation(self):
        with pytest.raises(InputDomainError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InputDomainError):
            sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(InputDomainError):
            sym_eig(np.ones((2, 3)))
        with pytest.raises(InputDomainError):
            sym_eig(np.ones((2, 2, 3)))


class TestStack:
    @pytest.mark.parametrize("d", [1, 4, 10])
    @pytest.mark.parametrize("decompose", [sym_eig, psd_spectrum])
    def test_stack_equals_one_by_one(self, decompose, d):
        # members leave the stack at different sweeps: the diagonal and the
        # zero matrix before the first, the others when each converges
        rng = np.random.default_rng(40 + d)
        stack = np.stack([random_symmetric(rng, d), np.diag(rng.normal(size=d)),
                          np.zeros((d, d)), random_psd(rng, d),
                          1e-9 * random_symmetric(rng, d), random_symmetric(rng, d)])
        spectra = decompose(stack)
        assert len(spectra) == len(stack)
        for a, spec in zip(stack, spectra):
            alone = decompose(a)
            assert spec.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert spec.eigenvectors.tobytes() == alone.eigenvectors.tobytes()

    @pytest.mark.parametrize("bad", [np.array([[1.0, np.inf], [np.inf, 1.0]]),
                                     np.array([[1.0, 2.0], [0.0, 1.0]])],
                             ids=["non-finite", "asymmetric"])
    def test_bad_member_raises_as_alone(self, bad):
        with pytest.raises(InputDomainError) as alone:
            sym_eig(bad)
        with pytest.raises(InputDomainError) as stacked:
            sym_eig(np.stack([np.eye(2), bad, np.eye(2)]))
        assert str(stacked.value) == str(alone.value)

    def test_sweep_budget_exhausted_raises(self):
        rng = np.random.default_rng(10)
        stack = np.stack([np.eye(10), random_symmetric(rng, 10)])
        with pytest.raises(EigenNotConvergedError) as alone:
            sym_eig(stack[1], max_sweeps=1)
        with pytest.raises(EigenNotConvergedError) as stacked:
            sym_eig(stack, max_sweeps=1)
        assert str(stacked.value) == str(alone.value)


def spectrum_of(values):
    values = np.asarray(values, dtype=np.float64)
    return SpectralDecomposition(values, np.eye(len(values)))


class TestSpectrumUtilities:
    def test_cumsum_flat(self):
        np.testing.assert_allclose(normalized_cumsum(spectrum_of([1, 1, 1, 1])),
                                   [0.25, 0.5, 0.75, 1.0])

    def test_cumsum_arithmetic(self):
        np.testing.assert_allclose(normalized_cumsum(spectrum_of([9, 0.5, 0.5])),
                                   [0.9, 0.95, 1.0])

    def test_cumsum_rank_one(self):
        np.testing.assert_allclose(normalized_cumsum(spectrum_of([5, 0, 0])),
                                   [1.0, 1.0, 1.0])

    def test_cumsum_final_entry_exact(self):
        cs = normalized_cumsum(spectrum_of([0.3, 0.2, 0.1]))
        assert cs[-1] == 1.0
        assert np.all(np.diff(cs) >= 0.0)

    def test_cumsum_degenerate(self):
        with pytest.raises(DegenerateSpectrumError):
            normalized_cumsum(spectrum_of([0.0, 0.0]))

    def test_select_m_strict_inequality(self):
        assert select_m(spectrum_of([9, 0.5, 0.5]), 0.9) == 2

    def test_select_m_dominant(self):
        assert select_m(spectrum_of([99, 1]), 0.9) == 1

    def test_select_m_flat(self):
        assert select_m(spectrum_of([1, 1, 1, 1, 1]), 0.9) == 5

    def test_select_m_threshold_domain(self):
        with pytest.raises(InputDomainError):
            select_m(spectrum_of([1, 1]), 1.0)
