"""Slope/gradient sensitivity matrices, scores, and their identities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from sensyn import (InputDomainError, Model, Normal, RngStream,
                    SpectralDecomposition, Uniform, analytic_anova,
                    c_as_from_gradients, dgsm_from_gradients, estimate_c_as,
                    estimate_c_gas, gradient_matrix, indicator_upper_sobol,
                    make_example1, make_example2, make_linear,
                    make_quadratic_normal, rank, scores, subspace_analysis,
                    sym_eig)
from sensyn import subspace
from sensyn.models import sample_inputs
from sensyn.subspace import DesignSlopes, separated_pairs, slope_vectors


def _gap(dist, window):
    return max(window, 1e-12) * dist.scale


def _rejection_pairs(dist, gap, n, seed):
    """Independent reference: i.i.d. pairs from numpy, kept if separated."""
    gen = np.random.default_rng(seed)
    kept = np.empty((0, 2))
    while len(kept) < n:
        if isinstance(dist, Uniform):
            pairs = gen.uniform(dist.lower, dist.upper, (4 * n, 2))
        else:
            pairs = gen.normal(dist.mu, dist.sigma, (4 * n, 2))
        kept = np.vstack([kept, pairs[np.abs(pairs[:, 0] - pairs[:, 1]) >= gap]])
    return kept[:n, 0], kept[:n, 1]


def _slope_pairs(marginals, window, m1, m2, seed, fn=lambda x: x.sum(axis=1)):
    """Run estimate_c_gas on a model that records its input batches.

    Returns the matrix, the base points z, and for every (freeze vector,
    input) the input index, the coordinate pairs (a, b) of its quotients and
    the mask of redrawn rows.
    """
    batches = []

    def record(x):
        batches.append(x.copy())
        return fn(x)

    model = Model(label="record", family="custom", marginals=tuple(marginals),
                  eval_fn=record)
    matrix = estimate_c_gas(model, m1, m2, RngStream(seed), slope_window=window)
    z = batches[0]
    out = []
    k = 1
    for _ in range(m2):
        for i in range(model.d):
            a, b = z[:, i].copy(), batches[k][:, i]
            k += 1
            redrawn = np.zeros(m1, dtype=bool)
            # a redraw batch is the only one whose column i is not z's
            nxt = batches[k] if k < len(batches) else None
            if nxt is not None and not np.array_equal(nxt[:, i], z[:len(nxt), i]):
                kept = (i + 1) % model.d  # a column the redraw leaves as in z
                redrawn = np.isin(z[:, kept], nxt[:, kept])
                a[redrawn] = nxt[:, i]
                k += 1
            out.append((i, a, b, redrawn))
    assert k == len(batches)
    return matrix, z, out


class TestSlopeMatrix:
    def test_linear_rank_one_exact(self):
        c = np.array([1.0, 2.0, 3.0])
        matrix = estimate_c_gas(make_linear(c), 64, 2, RngStream(4))
        np.testing.assert_allclose(matrix, np.outer(c, c), atol=1e-12)
        spec = sym_eig(matrix)
        assert spec.eigenvalues[0] == pytest.approx(c @ c, rel=1e-12)
        np.testing.assert_allclose(spec.eigenvectors[:, 0], c / np.linalg.norm(c),
                                   atol=1e-8)

    def test_constant_model_zero_matrix(self):
        model = Model(label="const", family="custom",
                      marginals=(Uniform(0.0, 1.0),) * 3,
                      eval_fn=lambda x: np.full(len(x), 7.0))
        matrix = estimate_c_gas(model, 50, 1, RngStream(5))
        np.testing.assert_array_equal(matrix, np.zeros((3, 3)))

    def test_indicator_leading_eigenvector_alignment(self):
        model = make_example2()
        result = subspace_analysis(model, "GAS", RngStream(6), n=10_000)
        u1 = result.spectrum.eigenvectors[:, 0]
        assert abs(u1 @ model.reference_direction) >= 0.99

    def test_indicator_diagonal_ranking(self):
        model = make_example2()
        matrix = estimate_c_gas(model, 10_000, 1, RngStream(7))
        exact = indicator_upper_sobol(model.reference_direction)
        got = rank(np.diag(matrix))[:3]
        np.testing.assert_array_equal(got, rank(exact)[:3])

    def test_quadratic_diagonal_unbiased_with_window(self):
        matrix = estimate_c_gas(
            make_quadratic_normal(np.diag([2.0, 0.0]), [0.0, 1.0]),
            100_000, 1, RngStream(8))
        np.testing.assert_allclose(np.diag(matrix), [2.0, 1.0], rtol=0.02)

    def test_example1_full_rank_scores_match_analytic_ranking(self):
        model = make_example1()
        oracle = analytic_anova(model)
        matrix = estimate_c_gas(model, 10_000, 1, RngStream(9))
        np.testing.assert_array_equal(rank(np.diag(matrix)), rank(oracle.upper))

    def test_noise_cancels_in_slopes(self):
        noisy = estimate_c_gas(make_example1(noise_scale=1.0), 500, 1, RngStream(10))
        clean = estimate_c_gas(make_example1(noise_scale=0.0), 500, 1, RngStream(10))
        np.testing.assert_allclose(noisy, clean, atol=1e-12)

    def test_psd_within_tolerance(self):
        matrix = estimate_c_gas(make_example2(), 2_000, 1, RngStream(11))
        spec = sym_eig(matrix)
        assert np.all(spec.eigenvalues >= -1e-10 * spec.eigenvalues[0])

    def test_deterministic(self):
        a = estimate_c_gas(make_example1(), 500, 1, RngStream(12))
        b = estimate_c_gas(make_example1(), 500, 1, RngStream(12))
        np.testing.assert_array_equal(a, b)

    def test_window_domain(self):
        with pytest.raises(InputDomainError):
            estimate_c_gas(make_example1(), 10, 1, RngStream(0), slope_window=0.95)

    def test_linear_exact_slope(self):
        c = np.array([1.5, -2.0, 3.0])
        model = make_linear(c, intervals=[(2.0, 7.0), (-3.0, -2.5), (0.0, 1.0)])
        for window in (0.0, 0.35, 0.89):
            matrix = estimate_c_gas(model, 300, 2, RngStream(24),
                                    slope_window=window)
            np.testing.assert_allclose(matrix, np.outer(c, c), rtol=1e-9)

    def test_failing_pairs_redrawn_separated_in_support(self):
        marginals = (Uniform(2.0, 7.0), Uniform(-3.0, -2.5), Normal(2.0, 3.0))
        for window in (0.0, 0.35, 0.89):
            _, _, pairs = _slope_pairs(marginals, window, 400, 2, 25)
            for i, a, b, redrawn in pairs:
                dist = marginals[i]
                assert np.all(np.abs(a - b) >= _gap(dist, window))
                if isinstance(dist, Uniform):
                    for x in (a, b):
                        assert np.all((x >= dist.lower) & (x <= dist.upper))
            if window > 0.0:
                assert all(redrawn.any() for _, _, _, redrawn in pairs)

    def test_quadratic_midpoint_slope(self):
        # f = z1**2: the slope between a and b is a + b, whatever the window
        matrix, _, pairs = _slope_pairs((Normal(0.0, 1.0),) * 2, 0.35, 500, 1, 26,
                                        fn=lambda x: x[:, 0] ** 2)
        _, a, b, _ = pairs[0]
        assert matrix[0, 0] == pytest.approx(np.mean((a + b) ** 2), rel=1e-12)
        np.testing.assert_array_equal(matrix[1], 0.0)

    def test_indicator_slopes_from_recorded_pairs(self):
        # the matrix is the mean outer product of the quotients of the pairs
        # it evaluated; an indicator that keeps its side gives a zero slope
        model = make_example2()
        m1, m2 = 300, 2
        matrix, z, pairs = _slope_pairs(model.marginals, 0.35, m1, m2, 27,
                                        fn=model.eval_fn)
        expect = np.zeros((model.d, model.d))
        for j in range(m2):
            slopes = np.empty((m1, model.d))
            for i, a, b, _ in pairs[j * model.d:(j + 1) * model.d]:
                za, zb = z.copy(), z.copy()
                za[:, i], zb[:, i] = a, b
                fa, fb = model.eval_fn(za), model.eval_fn(zb)
                slopes[:, i] = (fb - fa) / (b - a)
                assert np.all(slopes[fa == fb, i] == 0.0)
            expect += slopes.T @ slopes / m1
        np.testing.assert_allclose(matrix, expect / m2, rtol=1e-12, atol=1e-15)

    def test_one_uniforms_call_per_redrawn_block(self, monkeypatch):
        uniforms_calls = eval_calls = 0
        draw = RngStream.uniforms

        def counted_uniforms(stream, n):
            nonlocal uniforms_calls
            uniforms_calls += 1
            return draw(stream, n)

        base = make_example1()

        def counted_eval(x):
            nonlocal eval_calls
            eval_calls += 1
            return base.eval_fn(x)

        monkeypatch.setattr(RngStream, "uniforms", counted_uniforms)
        model = dataclasses.replace(base, eval_fn=counted_eval)
        m1, m2, d = 1_000, 2, model.d
        estimate_c_gas(model, m1, m2, RngStream(26), slope_window=0.89)
        # base and freeze columns, then one call per (freeze vector, input):
        # at this window every block has pairs to redraw
        assert eval_calls == 1 + 2 * m2 * d
        assert uniforms_calls == d + m2 * d + m2 * d


def _mask_slope_column(model, z, i, b, fz, gap, rng, *, noise=None, fb=None):
    """Reference: the slope column gathered with boolean masks, two row
    copies per replaced block."""
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


class TestSlopeColumnGather:
    """The index-gathered slope column against the boolean-mask reference:
    the same calls, rows and bytes."""

    MARGINALS = {"uniform": (Uniform(0.0, 1.0), Uniform(-2.0, 3.0),
                             Uniform(0.0, 1.0), Uniform(1.0, 1.5)),
                 "normal": (Normal(0.0, 1.0), Normal(1.0, 2.0),
                            Normal(-1.0, 0.5), Normal(0.0, 1.0))}
    WINDOWS = (0.0, 0.35, 0.89)

    @staticmethod
    def _model(marginals, noise_scale=0.0):
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2] ** 2 + np.abs(x[:, 3])

        model = Model(label="gather", family="custom", marginals=marginals,
                      eval_fn=fn, noise_scale=noise_scale)
        return model, calls

    @staticmethod
    def _design(model, n, seed):
        root = RngStream(seed)
        z = sample_inputs(model, n, root.substream(0))
        v = sample_inputs(model, n, root.substream(1))
        fz = model.evaluate(z)
        fv = []
        for i in range(model.d):
            zi = z.copy()
            zi[:, i] = v[:, i]
            fv.append(model.evaluate(zi))
        return z, fz, v, fv

    def _design_slopes(self, model, calls, z, fz, v, fv, window):
        slopes = DesignSlopes(model, z, fz, RngStream(5), slope_window=window)
        per_input = []
        for i in range(model.d):
            calls.clear()
            slopes(i, v[:, i].copy(), fv[i])
            per_input.append(list(calls))
        return slopes.slopes, per_input

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("law", sorted(MARGINALS))
    def test_design_slopes_match_mask_reference(self, law, window, monkeypatch):
        model, calls = self._model(self.MARGINALS[law])
        z, fz, v, fv = self._design(model, 3000, 17)
        z0, fz0 = z.copy(), fz.copy()
        got, got_calls = self._design_slopes(model, calls, z, fz, v, fv, window)
        assert z.tobytes() == z0.tobytes() and fz.tobytes() == fz0.tobytes()
        for i, dist in enumerate(model.marginals):
            gap = max(window, 1e-12) * dist.scale
            nb = int(np.sum(np.abs(v[:, i] - z[:, i]) < gap))
            # f(b, z_-i) then f(a, z_-i) on the nb replaced rows, or nothing
            assert got_calls[i] == ([nb, nb] if nb else [])
        if window == 0.0:
            assert got_calls == [[]] * model.d
        if window == 0.89:  # P(|a - b| < gap) is 0.99 (uniform), 0.47 (normal)
            share = {"uniform": 0.95, "normal": 0.4}[law]
            assert min(c[0] for c in got_calls) > share * len(z)

        monkeypatch.setattr(subspace, "_slope_column", _mask_slope_column)
        want, want_calls = self._design_slopes(model, calls, z, fz, v, fv, window)
        assert got_calls == want_calls
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("noise_scale", [0.0, 0.5])
    @pytest.mark.parametrize("law", sorted(MARGINALS))
    def test_slope_vectors_match_mask_reference(self, law, noise_scale, window,
                                                monkeypatch):
        model, calls = self._model(self.MARGINALS[law], noise_scale)
        got = list(slope_vectors(model, 800, 2, RngStream(23), window))
        got_calls = list(calls)
        calls.clear()
        monkeypatch.setattr(subspace, "_slope_column", _mask_slope_column)
        want = list(slope_vectors(model, 800, 2, RngStream(23), window))
        assert got_calls == calls
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


class TestPairDraw:
    DISTS = (Uniform(-0.5, 0.5), Uniform(0.0, 1.0), Uniform(2.0, 7.0),
             Normal(0.0, 1.0), Normal(2.0, 3.0))

    @pytest.mark.parametrize("window", [0.0, 0.35, 0.89])
    @pytest.mark.parametrize("dist", DISTS, ids=repr)
    def test_in_support_and_separated(self, dist, window):
        gap = _gap(dist, window)
        a, b = separated_pairs(dist, gap, 5_000, RngStream(27))
        assert a.shape == b.shape == (5_000,)
        assert np.all(np.abs(a - b) >= gap)
        if isinstance(dist, Uniform):
            for x in (a, b):
                assert np.all((x >= dist.lower) & (x <= dist.upper))
        else:
            assert np.all(np.isfinite(a) & np.isfinite(b))

    @pytest.mark.parametrize("window", [0.35, 0.89])
    @pytest.mark.parametrize("dist", DISTS[:2] + DISTS[3:], ids=repr)
    def test_law_matches_rejection_reference(self, dist, window):
        gap = _gap(dist, window)
        a, b = separated_pairs(dist, gap, 20_000, RngStream(28))
        ra, rb = _rejection_pairs(dist, gap, 20_000, seed=29)
        # 24 two-sample KS tests in this class: a Bonferroni level of 0.05/24
        for got, ref in ((a, ra), (b - a, rb - ra), (a + b, ra + rb)):
            assert ks_2samp(got, ref).pvalue >= 0.002

    def test_unsupported_marginal(self):
        @dataclasses.dataclass(frozen=True)
        class Exponential:
            rate: float

        with pytest.raises(InputDomainError, match="no separated pair law"):
            separated_pairs(Exponential(1.0), 0.1, 5, RngStream(0))

    @settings(max_examples=60, deadline=None)
    @given(uniform=st.booleans(),
           loc=st.floats(-100.0, 100.0),
           scale=st.floats(0.01, 100.0),
           window=st.floats(0.0, 0.9, exclude_max=True),
           n=st.integers(1, 300),
           seed=st.integers(0, 2**64 - 1))
    def test_pair_draw_properties(self, uniform, loc, scale, window, n, seed):
        dist = Uniform(loc, loc + scale) if uniform else Normal(loc, scale)
        gap = window * dist.scale
        a, b = separated_pairs(dist, gap, n, RngStream(seed, 3))
        assert a.shape == b.shape == (n,)
        assert np.all(np.abs(a - b) >= gap)
        if uniform:
            for x in (a, b):
                assert np.all((x >= dist.lower) & (x <= dist.upper))
        else:
            assert np.all(np.isfinite(a) & np.isfinite(b))
        again = separated_pairs(dist, gap, n, RngStream(seed, 3))
        np.testing.assert_array_equal(a, again[0])
        np.testing.assert_array_equal(b, again[1])


class TestGradientMatrix:
    def test_linear_rank_one(self):
        c = np.array([1.0, 2.0, 3.0])
        matrix = estimate_c_as(make_linear(c), 100, 1e-3, RngStream(13))
        np.testing.assert_allclose(matrix, np.outer(c, c), atol=1e-9)

    def test_bilinear_moments(self):
        model = Model(label="xy", family="custom",
                      marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
                      eval_fn=lambda x: x[:, 0] * x[:, 1])
        matrix = estimate_c_as(model, 200_000, 1e-3, RngStream(14))
        np.testing.assert_allclose(np.diag(matrix), [1.0 / 3.0, 1.0 / 3.0],
                                   rtol=0.02)
        assert matrix[0, 1] == pytest.approx(0.25, rel=0.02)

    def test_noise_inflates_diagonal(self):
        matrix = estimate_c_as(make_example1(noise_scale=1.0), 2_000, 1e-3,
                               RngStream(15))
        np.testing.assert_allclose(np.diag(matrix), 2e6, rtol=0.33)


class TestScores:
    def test_rank_one_full_attribution(self):
        c = np.array([1.0, 2.0, 3.0])
        spec = sym_eig(estimate_c_gas(make_linear(c), 64, 1, RngStream(16)))
        np.testing.assert_allclose(scores(spec, 1), c**2, atol=1e-10)

    def test_full_rank_equals_diagonal(self):
        matrix = estimate_c_gas(make_example1(), 1_000, 1, RngStream(17))
        spec = sym_eig(matrix)
        np.testing.assert_allclose(scores(spec, 10), np.diag(matrix), atol=1e-10)

    def test_identity_spectrum(self):
        spec = SpectralDecomposition(np.array([2.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(scores(spec, 1), [2.0, 0.0])

    def test_monotone_in_m(self):
        spec = sym_eig(estimate_c_gas(make_example1(), 1_000, 1, RngStream(18)))
        prev = scores(spec, 1)
        for m in range(2, 11):
            cur = scores(spec, m)
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_m_domain(self):
        spec = SpectralDecomposition(np.array([1.0, 1.0]), np.eye(2))
        with pytest.raises(InputDomainError):
            scores(spec, 0)
        with pytest.raises(InputDomainError):
            scores(spec, 3)


class TestIdentities:
    def test_gradient_scores_full_rank_equal_dgsm(self):
        g = gradient_matrix(make_example1(), 2_000, 1e-3, RngStream(19))
        v = dgsm_from_gradients(g)
        spec = sym_eig(c_as_from_gradients(g))
        alpha_full = scores(spec, 10)
        np.testing.assert_allclose(alpha_full, v, atol=1e-10)
        for m in range(1, 10):
            assert np.all(scores(spec, m) <= v + 1e-10)

    def test_score_spill_bound(self):
        spec = sym_eig(estimate_c_gas(make_example1(), 2_000, 1, RngStream(20)))
        full = scores(spec, 10)
        for m in range(1, 10):
            capped = scores(spec, m) + spec.eigenvalues[m]
            assert np.all(capped >= full - 1e-10)

    def test_gas_equals_as_for_linear(self):
        c = np.array([2.0, -1.0, 0.5])
        model = make_linear(c, intervals=[(0.0, 1.0)] * 3)
        gas = estimate_c_gas(model, 128, 1, RngStream(21))
        as_ = estimate_c_as(model, 128, 1e-3, RngStream(22))
        np.testing.assert_allclose(gas, np.outer(c, c), atol=1e-12)
        np.testing.assert_allclose(as_, np.outer(c, c), atol=1e-9)


class TestSubspaceAnalysis:
    def test_selected_rank_and_kind(self):
        result = subspace_analysis(make_linear([1.0, 2.0, 3.0]), "GAS",
                                   RngStream(23), n=128)
        assert result.kind == "GAS"
        assert result.m_selected == 1  # exactly rank one
        np.testing.assert_allclose(result.scores(), [1.0, 4.0, 9.0], atol=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(InputDomainError):
            subspace_analysis(make_example1(), "QAS", RngStream(0), n=16)
