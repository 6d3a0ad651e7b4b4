"""Streams, distributions, inverse CDFs, and the distribution constant."""

import math
import statistics

import numpy as np
import pytest

from sensyn import (InputDomainError, Normal, RngStream, Uniform,
                    cheeger_constant, cheeger_constant_grid, inverse_cdf,
                    normal_inv_cdf, sample)


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
        # independent reference: the stdlib's Wichura AS241 quantile
        reference = statistics.NormalDist().inv_cdf
        u = np.linspace(1e-10, 1 - 1e-10, 100001)
        expected = np.array([reference(v) for v in u.tolist()])
        assert np.max(np.abs(normal_inv_cdf(u) - expected)) < 1e-12

    def test_monotone(self):
        rng = RngStream(11)
        u = np.sort(rng.uniforms(2000))
        for dist in (Uniform(-2.0, 5.0), Normal(1.0, 3.0)):
            x = dist.inv_cdf(u)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.2, 1.7])
    def test_domain_errors(self, u):
        with pytest.raises(InputDomainError):
            inverse_cdf(Normal(0.0, 1.0), u)
        with pytest.raises(InputDomainError):
            inverse_cdf(Uniform(0.0, 1.0), u)


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
