"""Variance and Sobol' index estimators against analytic oracles."""

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, RngStream, Uniform,
                    ZeroVarianceError, analytic_anova, estimate_sobol,
                    estimate_variance, lower_sobol, make_example1,
                    make_example4, make_linear, upper_sobol)


def pure_interaction_model():
    """f = (x1 - 1/2)(x2 - 1/2): no main effects, one interaction."""
    return Model(label="pure_interaction", family="custom",
                 marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
                 eval_fn=lambda x: (x[:, 0] - 0.5) * (x[:, 1] - 0.5))


def product_model():
    """f = x1*x2 - 1/4 on the unit square.

    Brute-force ANOVA: conditional means are x_i/2 - 1/4, so the main
    effects are 1/48 each, the interaction carries 1/144, the variance is
    7/144, and the indices are lower = 3/7, upper = 4/7 per input.
    """
    return Model(label="product", family="custom",
                 marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
                 eval_fn=lambda x: x[:, 0] * x[:, 1] - 0.25)


class TestEstimateVariance:
    def test_additive_uniform(self):
        model = make_linear([1.0, 1.0, 1.0, 1.0])
        var = estimate_variance(model, 1_000_000, RngStream(1))
        assert var == pytest.approx(4.0 / 12.0, abs=3.0 * 3e-4)

    def test_constant_model_flags_zero(self):
        model = make_linear([0.0, 0.0])
        assert estimate_variance(model, 100, RngStream(0)) == 0.0
        with pytest.raises(ZeroVarianceError):
            upper_sobol(model, 100, RngStream(0))
        with pytest.raises(ZeroVarianceError):
            lower_sobol(model, 100, RngStream(0))

    def test_example1_matches_oracle(self):
        oracle = analytic_anova(make_example1())
        var = estimate_variance(make_example1(), 1_000_000, RngStream(2))
        assert var == pytest.approx(oracle.sigma2, rel=0.01)

    def test_needs_two_points(self):
        with pytest.raises(InputDomainError):
            estimate_variance(make_example1(), 1, RngStream(0))


class TestUpperSobol:
    def test_example4_reference_band(self):
        model = make_example4()
        runs = np.array([upper_sobol(model, 10_000, RngStream(seed))
                         for seed in range(3)])
        mean = runs.mean(axis=0)
        np.testing.assert_allclose(mean[:2], 0.289, atol=0.02)
        np.testing.assert_allclose(mean[2:], 0.237, atol=0.02)

    def test_linear_analytic(self):
        # at n = 200,000 the SE of the 0.8 index is about 0.0023, so the
        # band is over 4 SE wide
        est = upper_sobol(make_linear([1.0, 2.0]), 200_000, RngStream(3))
        np.testing.assert_allclose(est, [0.2, 0.8], atol=0.01)

    def test_additive_indices_sum_to_one(self):
        est = upper_sobol(make_linear([1.0, 2.0, 3.0]), 50_000, RngStream(4))
        assert est.sum() == pytest.approx(1.0, abs=0.02)

    def test_nonnegative(self):
        est = upper_sobol(pure_interaction_model(), 5_000, RngStream(5))
        assert np.all(est >= 0.0)


class TestLowerSobol:
    def test_linear_equals_upper(self):
        # Owen's estimator of S2 = 0.8 has a standard error of 0.011 at
        # n = 20,000, so at this n the tolerance is 4 standard errors
        est = lower_sobol(make_linear([1.0, 2.0]), 400_000, RngStream(6))
        np.testing.assert_allclose(est, [0.2, 0.8], atol=0.01)

    def test_example1_small_index(self):
        est = lower_sobol(make_example1(), 100_000, RngStream(7))
        assert est[0] == pytest.approx(0.0024896265560165973, abs=0.002)

    def test_pure_interaction_vanishing_main_effects(self):
        model = pure_interaction_model()
        low = lower_sobol(model, 50_000, RngStream(8))
        up = upper_sobol(model, 50_000, RngStream(8))
        np.testing.assert_allclose(low, 0.0, atol=0.02)
        np.testing.assert_allclose(up, 1.0, atol=0.05)  # single interaction
        assert np.all(low < up)

    def test_product_model_brute_force_anova(self):
        model = product_model()
        low = lower_sobol(model, 100_000, RngStream(9))
        up = upper_sobol(model, 100_000, RngStream(9))
        np.testing.assert_allclose(low, 3.0 / 7.0, atol=0.02)
        np.testing.assert_allclose(up, 4.0 / 7.0, atol=0.02)
        assert np.all(low < up)


class TestCombined:
    @pytest.mark.parametrize("factory", [make_example1, make_example4,
                                         lambda: make_linear([1.0, 2.0, 3.0])])
    def test_lower_at_most_upper(self, factory):
        model = factory()
        est = estimate_sobol(model, 20_000, RngStream(10))
        # 5 standard errors at this n is comfortably below 0.03
        assert np.all(est.lower <= est.upper + 0.03)

    def test_additive_lower_equals_upper(self):
        est = estimate_sobol(make_linear([1.0, 2.0, 3.0]), 50_000, RngStream(11))
        np.testing.assert_allclose(est.lower, est.upper, atol=0.02)

    def test_deterministic(self):
        a = estimate_sobol(make_example4(), 2_000, RngStream(12))
        b = estimate_sobol(make_example4(), 2_000, RngStream(12))
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.lower, b.lower)
        assert a.sigma2_hat == b.sigma2_hat

    def test_error_shrinks_with_sample_size(self):
        # over 500 seeds per size the ratio of the two spreads, near
        # sqrt(2), itself spreads by about 0.065, so 1.2 and 1.7 lie 3.3 and
        # 4.4 of those from sqrt(2); the two sizes take disjoint seeds,
        # since a design's first rows are those of a smaller design
        model = make_example4()
        n_seeds = 500
        small = np.array([upper_sobol(model, 1_000, RngStream(s))[0]
                          for s in range(n_seeds)])
        large = np.array([upper_sobol(model, 2_000, RngStream(n_seeds + s))[0]
                          for s in range(n_seeds)])
        ratio = small.std(ddof=1) / large.std(ddof=1)
        assert 1.2 <= ratio <= 1.7
