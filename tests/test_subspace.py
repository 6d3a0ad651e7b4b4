"""Slope/gradient sensitivity matrices, scores, and their identities."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import kstest

from sensyn import (DEFAULT_SLOPE_WINDOW, EmptySlopeWindowError, InputDomainError,
                    Model, Normal, RngStream,
                    SpectralDecomposition, Uniform, analytic_anova, build_report,
                    c_as_from_gradients, dgsm_from_gradients, estimate_c_as,
                    estimate_c_gas, gradient_matrix, indicator_upper_sobol,
                    make_example1, make_example2, make_example4, make_linear,
                    make_quadratic_normal, normalized_cumsum, rank, scores,
                    subspace_analysis, sym_eig)
from sensyn.bounds import batch_statistics
from sensyn import report, subspace
from sensyn.models import sample_inputs
from sensyn.subspace import DesignSlopes, _partners, slope_vectors
from sensyn.variance import PickFreeze, upper_from_design


def _gap(dist, window):
    return max(window, 1e-12) * dist.scale


def _cdf(dist, x):
    """The marginal's CDF, from scipy for a normal."""
    if isinstance(dist, Uniform):
        return np.clip((x - dist.lower) / dist.scale, 0.0, 1.0)
    return ndtr((x - dist.mu) / dist.sigma)


def _weight(dist, a, gap):
    """P(|b - a| >= gap) for b drawn from ``dist``."""
    return _cdf(dist, a - gap) + (1.0 - _cdf(dist, a + gap))


def _partner_cdf(dist, a, gap, b):
    """The CDF at b of the partner law: b from ``dist`` given a and
    |b - a| >= gap."""
    lo, hi = _cdf(dist, a - gap), _cdf(dist, a + gap)
    fb = _cdf(dist, b)
    return (np.minimum(fb, lo) + np.maximum(fb - hi, 0.0)) / _weight(dist, a, gap)


def _weighted_matrix(slopes, w):
    """sum w_i w_j q_i q_j / sum w_i w_j off the diagonal, sum w_i q_i**2 /
    sum w_i on it, summed in one pass."""
    wq = w * slopes
    matrix = wq.T @ wq / (w.T @ w)
    np.fill_diagonal(matrix, np.sum(wq * slopes, axis=0) / np.sum(w, axis=0))
    return matrix


def _slope_pairs(marginals, window, m1, m2, seed, fn=lambda x: x.sum(axis=1)):
    """Run estimate_c_gas on a model that records its input batches.

    Returns the matrix, the base points z, and for every (freeze vector,
    input) the input index, the base coordinates a and partners b of its
    quotients (b is NaN where no row was evaluated) and the mask of rows
    whose first freeze draw was replaced.
    """
    batches = []

    def record(x):
        batches.append(x.copy())
        return fn(x)

    model = Model(label="record", family="custom", marginals=tuple(marginals),
                  eval_fn=record)
    matrix = estimate_c_gas(model, m1, m2, RngStream(seed), slope_window=window)
    z = batches[0]
    assert len(batches) == 1 + m2 * model.d  # no row beyond the columns
    out = []
    for j in range(m2):
        v = sample_inputs(model, m1, RngStream(seed).substream(1).substream(j))
        for i in range(model.d):
            col = batches[1 + j * model.d + i]
            kept = (i + 1) % model.d  # a column the batch leaves as in z
            live = np.isin(z[:, kept], col[:, kept])
            b = np.full(m1, np.nan)
            b[live] = col[:, i]
            out.append((i, z[:, i].copy(), b, live & (b != v[:, i])))
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
            100_000, 1, RngStream(8), slope_window=0.35)
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
                gap = _gap(dist, window)
                live = ~np.isnan(b)
                assert np.all(np.abs(a - b)[live] >= gap)
                # a row is left out only where no partner clears the window
                np.testing.assert_array_equal(live, _weight(dist, a, gap) > 0.0)
                if isinstance(dist, Uniform):
                    for x in (a, b[live]):
                        assert np.all((x >= dist.lower) & (x <= dist.upper))
            if window > 0.0:
                assert all(redrawn.any() for _, _, _, redrawn in pairs)
            if window == 0.89:  # a gap of 0.89 widths leaves central bases out
                assert not all(np.isnan(b).any() for _, _, b, _ in pairs)
                assert np.isnan(pairs[0][2]).any()

    def test_quadratic_midpoint_slope(self):
        # f = z1**2: the slope between a and b is a + b, whatever the window,
        # weighted by P(|b - a| >= gap) of its base
        matrix, _, pairs = _slope_pairs((Normal(0.0, 1.0),) * 2, 0.35, 500, 1, 26,
                                        fn=lambda x: x[:, 0] ** 2)
        _, a, b, _ = pairs[0]
        w = _weight(Normal(0.0, 1.0), a, 0.35)
        assert matrix[0, 0] == pytest.approx(
            np.sum(w * (a + b) ** 2) / np.sum(w), rel=1e-12)
        np.testing.assert_array_equal(matrix[1], 0.0)

    def test_indicator_slopes_from_recorded_pairs(self):
        # the matrix is the mean outer product of the quotients of the pairs
        # it evaluated; an indicator that keeps its side gives a zero slope
        model = make_example2()
        m1, m2 = 300, 2
        matrix, z, pairs = _slope_pairs(model.marginals, 0.35, m1, m2, 27,
                                        fn=model.eval_fn)
        w = np.column_stack([_weight(dist, z[:, i], 0.35)
                             for i, dist in enumerate(model.marginals)])
        expect = np.zeros((model.d, model.d))
        for j in range(m2):
            slopes = np.empty((m1, model.d))
            for i, a, b, _ in pairs[j * model.d:(j + 1) * model.d]:
                za, zb = z.copy(), z.copy()
                za[:, i], zb[:, i] = a, b
                fa, fb = model.eval_fn(za), model.eval_fn(zb)
                slopes[:, i] = (fb - fa) / (b - a)
                assert np.all(slopes[fa == fb, i] == 0.0)
            expect += _weighted_matrix(slopes, w)
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
        # the base, then one column per (freeze vector, input), evaluated
        # after its partners are redrawn: at this window every block has
        # partners to redraw, one uniforms call each
        assert eval_calls == 1 + m2 * d
        assert uniforms_calls == d + m2 * d + m2 * d


def _mask_slope_column(model, z, i, b, fz, gap, rng, *, fb=None):
    """Reference: the slope column of input i of a noise-free ``model``,
    gathered with boolean masks and row copies, its partners redrawn on
    ``rng``."""
    a = z[:, i].copy()
    bad = np.abs(b - a) < gap
    nb = int(bad.sum())
    live = np.ones(len(z), dtype=bool)
    if nb:
        b[bad], mass = _partners(model.marginals[i], a[bad], gap, rng.uniforms(nb))
        live[np.flatnonzero(bad)[mass == 0.0]] = False
    if fb is None:
        z[:, i] = b
        fb = fz.copy()
        fb[live] = model.evaluate(z[live])
        z[:, i] = a
    elif (bad & live).any():
        redo = bad & live
        zb = z[redo]
        zb[:, i] = b[redo]
        fb = fb.copy()
        fb[redo] = model.evaluate(zb)
    return np.where(live, fb - fz, 0.0) / np.where(live, b - a, 1.0)


def _mask_design_slopes(model, z, fz, v, fv, window, rng):
    """Reference: :class:`DesignSlopes`' quotients, one input at a time,
    input i redrawing on ``rng.substream(3).substream(i)``."""
    return np.column_stack([
        _mask_slope_column(model, z, i, v[:, i].copy(), fz, _gap(dist, window),
                           rng.substream(3).substream(i), fb=fv[i])
        for i, dist in enumerate(model.marginals)])


def _mask_slope_vectors(model, m1, m2, rng, window):
    """Reference: the quotients of :func:`slope_vectors`, one input at a
    time, each column evaluated after its own partners are redrawn, all of
    them of the model's noise-free part."""
    model = dataclasses.replace(model, noise_scale=0.0)
    z = sample_inputs(model, m1, rng.substream(0))
    fz = model.evaluate(z)
    for j in range(m2):
        v = sample_inputs(model, m1, rng.substream(1).substream(j))
        redraw = rng.substream(3).substream(j)
        yield np.column_stack([
            _mask_slope_column(model, z, i, v[:, i], fz, _gap(dist, window),
                               redraw.substream(i))
            for i, dist in enumerate(model.marginals)])


class TestSlopeColumnGather:
    """The slope quotients with the partners of all inputs redrawn together
    against the one-input-at-a-time boolean-mask reference: the same rows
    and bytes."""

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

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("law", sorted(MARGINALS))
    def test_design_slopes_match_mask_reference(self, law, window):
        model, calls = self._model(self.MARGINALS[law])
        z, fz, v, fv = self._design(model, 3000, 17)
        z0, fz0 = z.copy(), fz.copy()
        slopes = DesignSlopes(model, z, fz, RngStream(5), slope_window=window)
        calls.clear()
        for i in range(model.d):
            slopes(i, v[:, i].copy(), fv[i])
        got_calls = list(calls)
        assert z.tobytes() == z0.tobytes() and fz.tobytes() == fz0.tobytes()
        expect = []
        for i, dist in enumerate(model.marginals):
            gap = _gap(dist, window)
            first = np.abs(v[:, i] - z[:, i]) < gap
            nb = int(np.sum(first & (_weight(dist, z[:, i], gap) > 0.0)))
            # f(b, z_-i) on the redrawn rows that have a partner, or nothing
            expect += [nb] if nb else []
        assert got_calls == expect
        if window == 0.0:
            assert got_calls == []
        if window == 0.89:
            # P(|a - b| < gap) is 0.99 (uniform), 0.47 (normal), but on a
            # uniform the 78 % of bases within 0.39 widths of the centre
            # have no partner and cost no row
            share = {"uniform": 0.17, "normal": 0.4}[law]
            assert len(got_calls) == model.d
            assert min(got_calls) > share * len(z)

        calls.clear()
        want = _mask_design_slopes(model, z, fz, v, fv, window, RngStream(5))
        assert calls == got_calls
        assert slopes.slopes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("noise_scale", [0.0, 0.5])
    @pytest.mark.parametrize("law", sorted(MARGINALS))
    def test_slope_vectors_match_mask_reference(self, law, noise_scale, window):
        model, calls = self._model(self.MARGINALS[law], noise_scale)
        got = list(slope_vectors(model, 800, 2, RngStream(23), window))
        got_calls = list(calls)
        calls.clear()
        want = list(_mask_slope_vectors(model, 800, 2, RngStream(23), window))
        assert got_calls == calls
        assert [s.slopes.tobytes() for s in got] == [w.tobytes() for w in want]


class TestPairDraw:
    """The partner law: b from the marginal given the base a and
    |b - a| >= gap, with the weight P(|b - a| >= gap)."""

    DISTS = (Uniform(-0.5, 0.5), Uniform(0.0, 1.0), Uniform(2.0, 7.0),
             Normal(0.0, 1.0), Normal(2.0, 3.0))

    @staticmethod
    def _draw(dist, window, n, seed):
        root = RngStream(seed)
        a = dist.inv_cdf(root.substream(0).uniforms(n))
        gap = _gap(dist, window)
        u = root.substream(1).uniforms(n)
        b, mass = _partners(dist, a, gap, u)
        return a, b, mass, gap, u

    @pytest.mark.parametrize("window", [0.0, 0.35, 0.89])
    @pytest.mark.parametrize("dist", DISTS, ids=repr)
    def test_in_support_and_separated(self, dist, window):
        a, b, mass, gap, _ = self._draw(dist, window, 5_000, 27)
        assert b.shape == mass.shape == (5_000,)
        live = mass > 0.0
        assert np.all(np.abs(a - b)[live] >= gap)
        if isinstance(dist, Uniform):
            assert np.all((b >= dist.lower) & (b <= dist.upper))
        else:
            assert live.all() and np.all(np.isfinite(b))

    @pytest.mark.parametrize("window", [0.0, 0.35, 0.89])
    @pytest.mark.parametrize("dist", DISTS, ids=repr)
    def test_weight_is_the_separated_mass(self, dist, window):
        a, _, mass, gap, _ = self._draw(dist, window, 5_000, 30)
        np.testing.assert_allclose(mass, _weight(dist, a, gap), rtol=1e-13,
                                   atol=1e-15)
        if isinstance(dist, Uniform) and window == 0.89:
            # central bases of a uniform have no partner at all
            np.testing.assert_array_equal(mass == 0.0,
                                          np.abs(a - (dist.lower + dist.upper) / 2)
                                          < gap - dist.scale / 2)

    @pytest.mark.parametrize("window", [0.35, 0.89])
    @pytest.mark.parametrize("dist", DISTS[:2] + DISTS[3:], ids=repr)
    def test_law_matches_exact_cdf(self, dist, window):
        # the partner law's exact CDF (scipy's for a normal) at each draw,
        # given its own base, is uniform on (0, 1): a one-sample KS test at
        # level 1e-4, each case on its own stream; and a draw inverts that
        # CDF at its uniform
        seed = 28 + 2 * self.DISTS.index(dist) + (window == 0.89)
        a, b, mass, gap, u = self._draw(dist, window, 20_000, seed)
        live = mass > 0.0
        pit = _partner_cdf(dist, a[live], gap, b[live])
        assert kstest(pit, "uniform").pvalue >= 1e-4
        np.testing.assert_allclose(pit, u[live], rtol=0.0, atol=1e-9)

    def test_unsupported_marginal(self):
        @dataclasses.dataclass(frozen=True)
        class Exponential:
            rate: float

        with pytest.raises(InputDomainError, match="no separated pair law"):
            _partners(Exponential(1.0), np.ones(5), 0.1, RngStream(0).uniforms(5))

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
        a = dist.inv_cdf(RngStream(seed, 2).uniforms(n))
        b, mass = _partners(dist, a, gap, RngStream(seed, 3).uniforms(n))
        assert b.shape == mass.shape == (n,)
        assert np.all((mass >= 0.0) & (mass <= 1.0 + 1e-15))  # round-off
        live = mass > 0.0
        assert np.all(np.abs(a - b)[live] >= gap)
        if uniform:
            assert np.all((b >= dist.lower) & (b <= dist.upper))
        else:
            assert live.all() and np.all(np.isfinite(b))
        again = _partners(dist, a, gap, RngStream(seed, 3).uniforms(n))
        np.testing.assert_array_equal(b, again[0])
        np.testing.assert_array_equal(mass, again[1])


def quadratic_c_gas(a_matrix, b):
    """C_GAS of 0.5 z'Az + b'z under N(0, 1) inputs at any slope window.

    The quotient of input i is b_i + sum_k!=i A_ik z_k + A_ii (z_i + p_i) / 2
    with p_i its partner.  Under a normal pair law conditioned on the gap,
    the sum z_i + p_i stays N(0, 2) and independent of the gap, and E z_i =
    0, so every entry keeps its raw-quotient (window 0) value.
    """
    a_matrix, b = np.asarray(a_matrix), np.asarray(b)
    c = np.outer(b, b)
    d = len(b)
    for i in range(d):
        for j in range(d):
            rest = [k for k in range(d) if k not in (i, j)]
            c[i, j] += sum(a_matrix[i, k] * a_matrix[j, k] for k in rest)
            c[i, j] += (0.5 * a_matrix[i, i] ** 2 if i == j else
                        0.5 * a_matrix[i, j] * (a_matrix[i, i] + a_matrix[j, j]))
    return c


def example4_c_gas(window, c12=50.0):
    """C_GAS of example4 (unit linear coefficients) at a slope window.

    With y = x - 1/2, input 2's quotient is 1 + c12 y1 S, where S =
    (b**5 - a**5) / (b - a) over its pair (a, b); every other quotient is
    linear in an odd power of a centred coordinate.  So every entry is 1
    except C11 = 1 + c12**2 E y**10 and C22 = 1 + c12**2 E[S**2] / 12, with
    E[S**2] over the pair law conditioned on |a - b| >= window: a degree-8
    polynomial, integrated exactly by Gauss-Legendre on the region b >= a +
    window (the law is symmetric in a and b).
    """
    x, w = np.polynomial.legendre.leggauss(8)
    g = window
    a = -0.5 + (1.0 - g) * (x + 1.0) / 2.0  # a in [-1/2, 1/2 - g]
    total = 0.0
    for ak, wk in zip(a, w * (1.0 - g) / 2.0):
        lo = ak + g  # b in [a + g, 1/2]
        bb = lo + (0.5 - lo) * (x + 1.0) / 2.0
        s = ak**4 + ak**3 * bb + ak**2 * bb**2 + ak * bb**3 + bb**4
        total += wk * np.sum(w * (0.5 - lo) / 2.0 * s * s)
    es2 = 2.0 * total / (1.0 - g) ** 2  # both triangles, over P(|a - b| >= g)
    c = np.ones((4, 4))
    c[0, 0] += c12**2 * 0.5**10 / 11.0
    c[1, 1] += c12**2 * es2 / 12.0
    return c


def example1_c_gas():
    """E[grad f grad f'] of example1, its C_GAS at any window (its slopes
    are exact)."""
    c = np.arange(1.0, 11.0)
    out = np.outer(c, c)
    for i in (0, 1, 8, 9):
        out[i, i] += 100.0 / 12.0
    return out


QUAD_A = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.5]]
QUAD_B = [0.2, -0.4, 0.1]


class TestSlopeOracle:
    """Every entry of the windowed slope matrix against its closed form,
    within six standard errors of the mean of 20 independent replicates (up
    to 35 entries per case are random), on the fresh path (estimate_c_gas)
    and the design path (the bounds batches, which read a pick-freeze
    design).  example1 is noise-free and multilinear, so its design-path
    matrix is the outer-product matrix of its design gradients, which reads
    no window: its two window cases there run one estimator, and the CI's
    comparison of t0.json with p1.json, the window that meta records aside,
    pins that the window leaves its bytes alone."""

    REPLICATES = 20
    # the former estimator's C01 of the quadratic, 0.523 at window 0.35 and
    # 0.317 at 0.89 against 0.670, lies over 25 of these SEs off
    CASES = {"quadratic": (lambda: make_quadratic_normal(QUAD_A, QUAD_B), 5_000,
                           lambda w: quadratic_c_gas(QUAD_A, QUAD_B)),
             "example4": (make_example4, 5_000, example4_c_gas),
             "example1": (make_example1, 1_000, lambda w: example1_c_gas())}

    def _replicates(self, model, n, window, path, seed):
        if path == "fresh":
            return [estimate_c_gas(model, n, 1, RngStream(seed).substream(r),
                                   slope_window=window)
                    for r in range(self.REPLICATES)]
        per_call = self.REPLICATES // 2  # the bounds engine runs 10 batches
        return [c for r in range(2) for c in batch_statistics(
            model, n, RngStream(seed).substream(r), gas=True,
            slope_window=window).c_gas][:per_call * 2]

    @pytest.mark.parametrize("path", ["fresh", "design"])
    @pytest.mark.parametrize("window", [0.35, 0.89])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_closed_form(self, case, window, path):
        make, n, oracle = self.CASES[case]
        runs = np.array(self._replicates(make(), n, window, path, 41))
        mean = runs.mean(axis=0)
        se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        want = oracle(window)
        # exact entries (linear inputs) carry only round-off
        tol = np.maximum(6.0 * se, 1e-12 * np.abs(want).max())
        assert np.all(np.abs(mean - want) <= tol), (mean - want) / np.maximum(se, 1e-300)


def _within_six_se(runs, want):
    """Whether the mean of the replicate matrices ``runs`` lies within six
    of its standard errors of ``want`` in every entry (exact entries within
    round-off)."""
    runs = np.asarray(runs)
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    tol = np.maximum(6.0 * se, 1e-12 * np.abs(want).max())
    return np.all(np.abs(runs.mean(axis=0) - want) <= tol)


class TestDefaultWindow:
    """Without a window the slope matrix is the paper's: window 0 for a
    differentiable model, ``DEFAULT_SLOPE_WINDOW`` for a discontinuous one."""

    REPLICATES = 20

    def test_window_follows_the_model(self):
        assert subspace._slope_window(make_example4(), None) == 0.0
        assert subspace._slope_window(make_example1(1.0), None) == 0.0
        assert subspace._slope_window(make_example2(), None) == DEFAULT_SLOPE_WINDOW == 0.35
        assert subspace._slope_window(make_example2(), 0.0) == 0.0  # an explicit window wins

    def test_window_0_matrix_is_the_plain_mean(self, monkeypatch):
        # at window 0 no weight is computed: the slope matrix is the AS
        # reduction of the quotients, and its diagonal the DGSM reduction
        def unused(*args):
            raise AssertionError("no pair weight at window 0")
        monkeypatch.setattr(subspace, "_pair_weights", unused)
        model, n = make_example4(), 3_000
        design = PickFreeze(model, n, RngStream(6).substream(1))
        designed = DesignSlopes(model, design.z, design.clean_fz, RngStream(6).substream(3))
        upper_from_design(design, on_column=[designed])
        fresh, = slope_vectors(model, n, 1, RngStream(7))
        for slopes in (designed, fresh):
            assert slopes.slope_window == 0.0
            assert slopes.matrix().tobytes() == c_as_from_gradients(slopes.slopes).tobytes()
            for k in (10, 100, n):
                assert (slopes.diagonal(k).tobytes()
                        == dgsm_from_gradients(slopes.slopes[:k]).tobytes())
        assert estimate_c_gas(model, n, 1, RngStream(7)).tobytes() == fresh.matrix().tobytes()

    def test_example4_report_is_the_window_0_closed_form(self, monkeypatch):
        seen = []

        def recording(kind, matrix, *args, _fn=report._decompose):
            if kind == "GAS":
                seen.append(matrix)
            return _fn(kind, matrix, *args)
        monkeypatch.setattr(report, "_decompose", recording)
        reports = [build_report(make_example4(), seed=seed, n=5_000)
                   for seed in range(self.REPLICATES)]
        assert {r.slope_window for r in reports} == {0.0}
        want = example4_c_gas(0.0)
        assert _within_six_se(seen, want)
        # C22 is 1.576 at window 0 and 1.178 at 0.35, C11 1.222 at both
        assert not _within_six_se(seen, example4_c_gas(0.35))
        # so the full-rank scores rank input 2 above input 1, by more than
        # six standard errors of their mean gap and in every replicate
        gaps = np.array([r.subspaces["gas"].scores_full[1] - r.subspaces["gas"].scores_full[0]
                         for r in reports])
        assert gaps.mean() > 6.0 * gaps.std(ddof=1) / np.sqrt(len(gaps))
        assert np.all(gaps > 0.0)
        assert gaps.mean() == pytest.approx(want[1, 1] - want[0, 0], abs=0.05)

    def test_noisy_example1_fresh_path_is_its_gradient_matrix(self):
        # every quotient is one of the noise-free part, so no window is
        # needed to keep them finite
        runs = [estimate_c_gas(make_example1(1.0), 2_000, 1, RngStream(43).substream(r))
                for r in range(self.REPLICATES)]
        assert _within_six_se(runs, example1_c_gas())

    def test_noisy_example1_design_path_is_its_gradient_matrix(self, monkeypatch):
        # a report with sobol reads the slope matrix off its design's
        # noise-free outputs, with every pair kept at the default window of 0
        seen = []

        def recording(kind, matrix, *args, _fn=report._decompose):
            if kind == "GAS":
                seen.append(matrix)
            return _fn(kind, matrix, *args)
        monkeypatch.setattr(report, "_decompose", recording)
        monkeypatch.setattr(report, "estimate_c_gas", None)  # no slope sample of its own
        for seed in range(self.REPLICATES):
            build_report(make_example1(1.0), seed=43 + seed, n=2_000,
                         methods=("sobol", "gas"))
        assert len(seen) == self.REPLICATES
        assert _within_six_se(seen, example1_c_gas())


class TestLargeWindow:
    """At window 0.89 a uniform's central bases have no admissible partner."""

    def test_base_without_partner_costs_no_row_and_names_the_window(self):
        calls = []
        base = make_example4()
        model = dataclasses.replace(
            base, eval_fn=lambda x: calls.append(len(x)) or base.eval_fn(x))
        z = np.full((3, 4), 0.5)  # every base within 0.39 of the centre
        slopes = DesignSlopes(model, z, model.evaluate(z), RngStream(0),
                              slope_window=0.89)
        calls.clear()
        for i in range(4):
            v = np.full(3, 0.6)  # every first draw inside the window
            slopes(i, v, np.ones(3))
        with pytest.raises(EmptySlopeWindowError,
                           match=r"none of 3 base points .* slope window 0\.89"):
            slopes.matrix()
        assert calls == []
        np.testing.assert_array_equal(slopes.slopes, 0.0)
        with pytest.raises(EmptySlopeWindowError):
            slopes.diagonal()

    def test_negative_eigenvalue_is_clamped_not_nan(self):
        # example4's linear inputs make its slope matrix singular, and the
        # entry-wise normalized estimate at n = 500 has a negative eigenvalue
        result = subspace_analysis(make_example4(), "GAS", RngStream(3), n=500,
                                   slope_window=0.89)
        assert sym_eig(result.matrix).eigenvalues[-1] < 0.0
        lam = result.spectrum.eigenvalues
        assert np.all(lam >= 0.0) and lam[-1] == 0.0
        prev = np.zeros(4)
        for m in range(1, 5):
            cur = result.scores(m)
            assert np.all(np.isfinite(cur)) and np.all(cur >= prev - 1e-12)
            prev = cur
        cumulative = normalized_cumsum(result.spectrum)
        assert np.all(np.isfinite(cumulative)) and cumulative[-1] == 1.0
        # the clamp moves the m = d scores off the diagonal by at most the
        # clamped mass
        np.testing.assert_allclose(result.scores(4), np.diag(result.matrix),
                                   atol=-sym_eig(result.matrix).eigenvalues[-1])


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
        # on the spectrum the scores read: the slope matrix's PSD part
        spec = subspace.psd_spectrum(
            estimate_c_gas(make_example1(), 1_000, 1, RngStream(18)))
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
        spec = subspace.psd_spectrum(
            estimate_c_gas(make_example1(), 2_000, 1, RngStream(20)))
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
