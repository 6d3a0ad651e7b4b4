"""Variance and Sobol' index estimators against analytic oracles."""

import functools

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, Normal, RngStream, Uniform,
                    ZeroVarianceError, analytic_anova, build_report,
                    estimate_sobol, estimate_variance, lower_sobol,
                    make_example1, make_example4, make_linear, upper_sobol)
from sensyn.dgsm import DesignGradients
from sensyn.variance import PickFreeze, lower_from_gradients, sobol_from_design


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
        # the sum of four unit uniforms has kurtosis 2.7, so the sample
        # variance's SE is sqrt(1.7 / 9 / n), 2.2e-4 at n = 4e6: the band
        # is 4.1 SE wide
        model = make_linear([1.0, 1.0, 1.0, 1.0])
        var = estimate_variance(model, 4_000_000, RngStream(1))
        assert var == pytest.approx(4.0 / 12.0, abs=9e-4)

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


GRADIENT_CASES = {"example1": make_example1,
                  "linear": lambda: make_linear([1.0, 2.0, 3.0, 4.0])}
N_SEEDS = 200


@functools.cache
def paired_lower(name: str):
    """The oracle's lower indices, and, over N_SEEDS seeds at n = 2,000, the
    design gradients' (:func:`lower_from_gradients`) and Owen's
    (:func:`sobol_from_design`) estimates of them, each pair on one design."""
    model = GRADIENT_CASES[name]()
    new, owen = [], []
    for seed in range(N_SEEDS):
        design = PickFreeze(model, 2_000, RngStream(seed))
        grads = DesignGradients(model, design.z, design.fz, 1e-3)
        est = sobol_from_design(design, on_column=[grads])
        new.append(lower_from_gradients(grads.matrix(), model.marginals, est.sigma2_hat))
        owen.append(est.lower)
    return analytic_anova(model).lower, np.array(new), np.array(owen)


class TestLowerFromGradients:
    def test_formula_on_known_laws(self):
        # Var(x_i) * mean(g_i)**2 / sigma2, with Var(x) = scale**2/12 for a
        # uniform law and sigma**2 for a normal one
        g = np.array([[1.0, -2.0], [3.0, 0.0]])
        got = lower_from_gradients(g, (Uniform(1.0, 3.0), Normal(5.0, 3.0)), 2.0)
        np.testing.assert_allclose(got, [4.0 / 12.0 * 4.0 / 2.0, 9.0 * 1.0 / 2.0],
                                   rtol=1e-15)

    def test_normal_inputs_against_their_anova(self):
        # f = x1 + 2 x2 x3 with x ~ N((0, 1, 2), diag(1, 0.25, 1)): the main
        # effects are 1, (2 E x3)**2 Var x2 = 4 and (2 E x2)**2 Var x3 = 4,
        # the variance 1 + 4 (E[x2**2] E[x3**2] - (E x2 E x3)**2) = 10
        model = Model(label="normal_product", family="custom", multilinear=True,
                      marginals=(Normal(0.0, 1.0), Normal(1.0, 0.5), Normal(2.0, 1.0)),
                      eval_fn=lambda x: x[:, 0] + 2.0 * x[:, 1] * x[:, 2])
        report = build_report(model, seed=3, n=20_000, methods=("sobol",))
        np.testing.assert_allclose(report.sobol_lower, [0.1, 0.4, 0.4], atol=0.02)

    @pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
    def test_lower_rmse_than_owen_on_every_input(self, name):
        truth, new, owen = paired_lower(name)
        rmse_new = np.sqrt(np.mean((new - truth) ** 2, axis=0))
        rmse_owen = np.sqrt(np.mean((owen - truth) ** 2, axis=0))
        # measured on these seeds: summed 0.0302 against 0.0521 on example1,
        # 0.0272 against 0.0458 on linear, and at most 0.64 of Owen's per input
        assert np.all(rmse_new < rmse_owen)

    @pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
    def test_mean_within_its_error_bars(self, name):
        # the square of the mean gradient is biased up by Var(g_i)/n, 0.4 %
        # of example1's smallest main effect at n = 2,000, far below the
        # standard error of a mean over N_SEEDS seeds; 3 standard errors is
        # a two-sided band of 99.7 % per input (measured: at most 1.54 on
        # example1 and 1.94 on linear)
        truth, new, _ = paired_lower(name)
        se = new.std(axis=0, ddof=1) / np.sqrt(N_SEEDS)
        assert np.all(np.abs(new.mean(axis=0) - truth) <= 3.0 * se)
