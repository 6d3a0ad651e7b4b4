"""Streams, distributions, inverse CDFs, and the distribution constant."""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from sensyn import (InputDomainError, Normal, RngStream, Uniform,
                    cheeger_constant, cheeger_constant_grid, inverse_cdf,
                    normal_cdf, normal_inv_cdf, sample)
from sensyn import randkit


def bisect_normal_quantile(u, iters=200):
    """Independent oracle: bisection on the erfc-based normal CDF.

    Bisects the tail probability on the side where erfc is relatively
    accurate, mirroring for the upper half.
    """
    if u > 0.5:
        return -bisect_normal_quantile(1.0 - u, iters)
    lo, hi = -12.0, 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInverseCdf:
    def test_uniform_median(self):
        assert inverse_cdf(Uniform(0.0, 1.0), 0.5) == 0.5

    def test_normal_median(self):
        assert inverse_cdf(Normal(0.0, 1.0), 0.5) == 0.0

    def test_pinned_tail_quantile(self):
        # oracle value from bisection on the erfc CDF
        expected = bisect_normal_quantile(0.99949776)
        got = inverse_cdf(Normal(0.0, 1.0), 0.99949776)
        assert abs(got - expected) < 1e-9
        assert got == pytest.approx(3.289268921224015, abs=1e-12)

    @pytest.mark.parametrize("u", [1e-10, 1e-6, 0.3, 0.7, 1 - 1e-6, 1 - 1e-10])
    def test_matches_bisection_oracle(self, u):
        assert normal_inv_cdf(u) == pytest.approx(bisect_normal_quantile(u),
                                                  abs=1e-9)

    def test_absolute_accuracy_band(self):
        # independent reference: scipy's Cephes ndtri (the stdlib's
        # NormalDist.inv_cdf is AS241 too, so it would not be independent)
        u = np.linspace(1e-10, 1 - 1e-10, 100001)
        assert np.max(np.abs(normal_inv_cdf(u) - ndtri(u))) < 1e-12

    def test_relative_accuracy_whole_range(self):
        # from the smallest subnormal to 1/2, and the mirror up to 1 - 2**-53
        g = np.geomspace(5e-324, 0.5, 100001)
        mirror = 1.0 - g
        for u in (g, mirror[mirror < 1.0]):
            x, ref = normal_inv_cdf(u), ndtri(u)
            assert np.all(np.isfinite(x))
            assert np.all(np.abs(x - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("joint, half_width", [
        (0.075, 0.075e-6), (0.925, 0.925e-6),
        (math.exp(-25.0), math.exp(-25.0) * 1e-6),
        # doubles near 1 are 1.1e-16 apart, so a 1e-6 relative span would
        # hold two values; half the tail mass gives 10**5 distinct ones
        (1.0 - math.exp(-25.0), 0.5 * math.exp(-25.0))])
    def test_non_decreasing_across_branch_joints(self, joint, half_width):
        u = joint + np.linspace(-half_width, half_width, 100001)
        assert u[0] < joint < u[-1]
        assert np.all(np.diff(normal_inv_cdf(u)) >= 0.0)

    def test_scalar_in_float_out(self):
        assert type(normal_inv_cdf(0.3)) is float
        assert type(normal_inv_cdf(np.float64(1e-300))) is float
        assert normal_inv_cdf(np.full((2, 3), 0.5)).shape == (2, 3)

    def test_monotone(self):
        rng = RngStream(11)
        u = np.sort(rng.uniforms(2000))
        for dist in (Uniform(-2.0, 5.0), Normal(1.0, 3.0)):
            x = dist.inv_cdf(u)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7, math.nan,
                                   pytest.param([0.5, math.nan], id="array-nan"),
                                   pytest.param([[0.2], [math.nan]], id="2d-nan")])
    def test_domain_errors(self, u):
        with pytest.raises(InputDomainError):
            inverse_cdf(Normal(0.0, 1.0), u)
        with pytest.raises(InputDomainError):
            inverse_cdf(Uniform(0.0, 1.0), u)
        with pytest.raises(InputDomainError):
            normal_inv_cdf(u)


class TestNormalCdf:
    def test_matches_ndtr(self):
        x = np.linspace(-38.0, 8.0, 460001)
        p, ref = normal_cdf(x), ndtr(x)
        normal = ref >= np.finfo(np.float64).tiny
        # 1e-14 relative, widened below x = -10 by the x**2 condition number
        # of the CDF in its argument: rounding x / sqrt(2) alone moves the
        # result by x**2 * 2**-53 relative, in either implementation
        bound = 1e-14 * np.maximum(1.0, x[normal] ** 2 / 100.0)
        assert np.all(np.abs(p - ref)[normal] <= bound * ref[normal])
        # below the normal range the value is subnormal and nonnegative
        assert np.all((p[~normal] >= 0.0) & (p[~normal] < 2.3e-308))

    def test_scalar_in_float_out(self):
        assert type(normal_cdf(0.3)) is float
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert type(Normal(1.0, 2.0).cdf(1.0)) is float


class TestDistributions:
    def test_invalid_parameters(self):
        with pytest.raises(InputDomainError):
            Uniform(1.0, 1.0)
        with pytest.raises(InputDomainError):
            Uniform(2.0, -1.0)
        with pytest.raises(InputDomainError):
            Normal(0.0, 0.0)
        with pytest.raises(InputDomainError):
            Normal(0.0, -1.0)

    @pytest.mark.parametrize("dist", [Uniform(-0.5, 0.5), Uniform(0.0, 1.0),
                                      Normal(0.0, 1.0), Normal(2.0, 0.5)])
    def test_density_integrates_to_one(self, dist):
        lo = dist.inv_cdf(1e-9)
        hi = dist.inv_cdf(1.0 - 1e-9)
        x = np.linspace(lo, hi, 400001)
        mass = np.trapezoid(dist.pdf(x), x)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("dist", [Uniform(-0.5, 0.5), Normal(0.0, 1.0)])
    def test_kolmogorov_smirnov(self, dist):
        n = 100_000
        x = np.sort(sample(dist, RngStream(5), n))
        cdf = dist.cdf(x)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        assert ks < 0.01


class TestSampling:
    def test_uniform_mean_band(self):
        n = 100_000
        x = sample(Uniform(-0.5, 0.5), RngStream(3), n)
        assert abs(x.mean()) < 3.0 / math.sqrt(12.0 * n)

    def test_normal_variance_band(self):
        x = sample(Normal(0.0, 1.0), RngStream(4), 100_000)
        assert abs(x.var(ddof=1) - 1.0) < 0.05

    def test_deterministic_replay(self):
        a = sample(Normal(0.0, 1.0), RngStream(9, 42), 1000)
        b = sample(Normal(0.0, 1.0), RngStream(9, 42), 1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_disagree(self):
        root = RngStream(9)
        a = root.substream(0).uniforms(64)
        b = root.substream(1).uniforms(64)
        assert not np.any(a == b)

    def test_uniforms_strictly_inside_unit_interval(self):
        u = RngStream(0).uniforms(1 << 16)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_substream_pure_function_of_ids(self):
        s1 = RngStream(1).substream(7).substream(2)
        s2 = RngStream(1).substream(7).substream(2)
        assert s1.stream_id == s2.stream_id
        np.testing.assert_array_equal(s1.uniforms(16), s2.uniforms(16))

    def test_invalid_count(self):
        with pytest.raises(InputDomainError):
            sample(Normal(0.0, 1.0), RngStream(0), 0)


def former_uniforms(seed, stream_id, counts):
    """Reference: the draws of successive ``uniforms(n)`` calls as a
    ``Generator`` over the stream's Philox made them, through
    ``integers(0, 2**64)`` and an out-of-place transform."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    for n in counts:
        raw = gen.integers(0, 1 << 64, size=n, dtype=np.uint64)
        yield ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def former_normal_inv_cdf(u):
    """Reference: AS241 with each branch's numerator and denominator stacked
    in one (2, n) Horner pass over (2, 1) coefficient columns."""
    def stacked(table):
        return tuple(np.array([[a], [b]]) for a, b in zip(*table))

    def rational(table, r):
        acc = table[0] * r
        for column in table[1:-1]:
            acc += column
            acc *= r
        acc += table[-1]
        return acc[0] / acc[1]

    central, intermediate, far_table = (
        stacked(randkit._CENTRAL), stacked(randkit._INTERMEDIATE),
        stacked(randkit._FAR))
    u_arr = np.asarray(u, dtype=np.float64)
    flat = u_arr.ravel()
    q = flat - 0.5
    x = q * rational(central, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        t = flat[tail]
        r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
        xt = rational(intermediate, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            xt[far] = rational(far_table, r[far] - 5.0)
        x[tail] = np.copysign(xt, q[tail])
    return x.reshape(u_arr.shape)


class TestBitIdentity:
    """The raw-word uniforms and the in-place AS241 reproduce the former
    implementations bit for bit."""

    COUNTS = (0, 1, 3, 4, 5, 0, 1000, 7, 4099)

    @pytest.mark.parametrize("seed, stream_id", [
        (0, 0), (1, 7), (12345, 1 << 63), ((1 << 64) - 1, (1 << 64) - 1)])
    def test_uniforms_match_generator_integers(self, seed, stream_id):
        stream = RngStream(seed, stream_id)
        for n, expected in zip(self.COUNTS,
                               former_uniforms(seed, stream_id, self.COUNTS)):
            got = stream.uniforms(n)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert got.tobytes() == expected.tobytes()

    def test_substream_derivation_leaves_parent_draws_alone(self):
        root = RngStream(5, 3)
        child = root.substream(2)
        root.substream(9).substream(1)
        expected = list(former_uniforms(5, 3, (6, 6)))
        assert root.uniforms(6).tobytes() == expected[0].tobytes()
        [child_expected] = former_uniforms(5, child.stream_id, (6,))
        assert child.uniforms(6).tobytes() == child_expected.tobytes()
        assert root.uniforms(6).tobytes() == expected[1].tobytes()

    def test_normal_inv_cdf_random_points(self):
        u = np.random.default_rng(20241).random(10**6)
        u = u[u > 0.0]
        assert normal_inv_cdf(u).tobytes() == former_normal_inv_cdf(u).tobytes()

    def test_normal_inv_cdf_tail_grids(self):
        g = np.geomspace(5e-324, 0.5, 100001)
        mirror = 1.0 - g
        u = np.concatenate([g, mirror[mirror < 1.0]])
        assert normal_inv_cdf(u).tobytes() == former_normal_inv_cdf(u).tobytes()

    def test_normal_inv_cdf_shapes(self):
        u = RngStream(8).uniforms(6005)
        for arr in (u[:1], u[:17], u, u[:-5].reshape(6, -1)):
            got = normal_inv_cdf(arr)
            assert got.shape == arr.shape
            assert got.tobytes() == former_normal_inv_cdf(arr).tobytes()
        assert normal_inv_cdf(u[:0]).shape == (0,)


class TestCheegerConstant:
    def test_unit_uniform_exact(self):
        assert cheeger_constant(Uniform(0.0, 1.0)) == 1.0

    def test_standard_normal(self):
        assert cheeger_constant(Normal(0.0, 1.0)) == pytest.approx(2.0 * math.pi,
                                                                   rel=1e-12)

    def test_uniform_interval_scaling(self):
        assert cheeger_constant(Uniform(-1.0, 3.0)) == pytest.approx(16.0)

    @pytest.mark.parametrize("dist", [Uniform(0.0, 1.0), Uniform(-1.0, 3.0),
                                      Normal(0.0, 1.0), Normal(-2.0, 1.5)])
    def test_grid_search_agrees(self, dist):
        closed = cheeger_constant(dist)
        grid = cheeger_constant_grid(dist)
        assert grid == pytest.approx(closed, rel=1e-4)
