"""Normalization, rankings, report assembly, and convergence studies."""

import numpy as np
import pytest

from sensyn import (DegenerateSpectrumError, InputDomainError, Model,
                    ModelOutputError, Uniform, analytic_anova, build_report,
                    convergence_study, make_example1, make_example2,
                    make_example4, make_linear, normalize, rank)


def nan_rows_model() -> Model:
    """Three uniform inputs; NaN wherever the first input is below 0.01."""
    def f(x):
        y = x @ np.array([1.0, 2.0, 3.0])
        y[x[:, 0] < 0.01] = np.nan
        return y

    return Model(label="nan_rows", family="custom",
                 marginals=(Uniform(0.0, 1.0),) * 3, eval_fn=f)


def broadcast_model() -> Model:
    """Returns an (n, d) array instead of one value per row."""
    return Model(label="broadcast", family="custom",
                 marginals=(Uniform(0.0, 1.0),) * 3,
                 eval_fn=lambda x: x * np.array([1.0, 2.0, 3.0]))


class TestNormalize:
    def test_basic(self):
        np.testing.assert_allclose(normalize([2.0, 3.0, 5.0]), [0.2, 0.3, 0.5])

    def test_zero_sum_marker(self):
        assert normalize([0.0, 0.0, 0.0]) is None

    def test_non_finite_rejected(self):
        with pytest.raises(InputDomainError):
            normalize([1.0, np.nan])

    def test_idempotent(self):
        once = normalize([1.0, 2.0, 7.0])
        np.testing.assert_array_equal(normalize(once), once)

    def test_sums_to_one(self):
        out = normalize(np.linspace(0.1, 3.0, 17))
        assert abs(out.sum() - 1.0) < 1e-12


class TestRank:
    def test_descending(self):
        np.testing.assert_array_equal(rank([0.1, 0.9, 0.5]), [2, 3, 1])

    def test_ties_identity(self):
        np.testing.assert_array_equal(rank([1.0, 1.0, 1.0]), [1, 2, 3])

    def test_scaling_invariant(self):
        values = np.array([0.3, 0.1, 2.0, 0.7])
        np.testing.assert_array_equal(rank(values), rank(5.0 * values))

    def test_example1_reference(self):
        oracle = analytic_anova(make_example1())
        np.testing.assert_array_equal(rank(oracle.upper),
                                      [10, 9, 8, 7, 6, 5, 4, 2, 1, 3])


class TestBuildReport:
    def test_all_methods_example4(self):
        report = build_report(make_example4(), seed=3, n=2_000)
        assert report.sigma2_hat > 0.0
        assert report.sobol_upper.shape == (4,)
        assert report.dgsm_normalized.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1 <= report.m_as <= 4 and 1 <= report.m_gas <= 4
        np.testing.assert_allclose(report.gas_scores_full,
                                   np.diag(np.zeros((4, 4))) + report.gas_scores_full)
        assert report.u1_alignment is None

    def test_subset_of_methods(self):
        report = build_report(make_example4(), seed=3, n=500, methods=("gas",))
        assert report.sobol_upper is None
        assert report.gas_scores_m is not None

    def test_unknown_method(self):
        with pytest.raises(InputDomainError):
            build_report(make_example4(), seed=0, methods=("sobol", "other"))

    def test_empty_methods(self):
        with pytest.raises(InputDomainError):
            build_report(make_example4(), seed=0, methods=())

    def test_indicator_alignment_field(self):
        report = build_report(make_example2(), seed=11, n=10_000,
                              methods=("gas",))
        assert report.u1_alignment >= 0.99

    def test_m_override(self):
        report = build_report(make_example4(), seed=3, n=500,
                              methods=("gas",), m_override=2)
        assert report.m_gas == 2

    def test_deterministic(self):
        a = build_report(make_example4(), seed=5, n=1_000)
        b = build_report(make_example4(), seed=5, n=1_000)
        np.testing.assert_array_equal(a.sobol_upper, b.sobol_upper)
        np.testing.assert_array_equal(a.gas_scores_full, b.gas_scores_full)
        np.testing.assert_array_equal(a.dgsm_raw, b.dgsm_raw)


class TestBadModelOutput:
    @pytest.mark.parametrize("methods", [("sobol",), ("sobol", "dgsm", "as", "gas")])
    def test_non_finite_output(self, methods):
        with pytest.raises(ModelOutputError, match=r"'nan_rows' returned \d+ non-finite"):
            build_report(nan_rows_model(), seed=1, n=2_000, methods=methods)

    @pytest.mark.parametrize("methods", [("sobol",), ("sobol", "dgsm", "as", "gas")])
    def test_mis_shaped_output(self, methods):
        with pytest.raises(ModelOutputError,
                           match=r"'broadcast' returned output of shape \(2000, 3\)"):
            build_report(broadcast_model(), seed=1, n=2_000, methods=methods)


class TestDegenerateSpectrum:
    # no forward difference of the indicator straddles its jump at this n
    def test_all_zero_as_matrix_names_method(self):
        with pytest.raises(DegenerateSpectrumError,
                           match=r"AS matrix of model 'example2' is all zero at n=100"):
            build_report(make_example2(), seed=1, n=100, methods=("as",))

    def test_all_zero_gas_matrix_names_method(self):
        constant = make_linear([0.0, 0.0])
        with pytest.raises(DegenerateSpectrumError, match=r"drop the 'gas' method"):
            build_report(constant, seed=1, n=50, methods=("gas",))


class TestConvergenceStudy:
    def test_linear_wellseparated_ranking(self):
        model = make_linear(np.arange(1.0, 11.0))
        reference = rank(analytic_anova(model).upper)
        for method in ("upper_sobol", "gas_scores"):
            table = convergence_study(model, method, (10_000,), 20, reference)
            assert table.full_match_fraction[0] >= 19.0 / 20.0

    def test_noisy_fractions_and_contrast(self):
        model = make_example1(noise_scale=1.0)
        reference = rank(analytic_anova(model).upper)
        gas = convergence_study(model, "gas_scores", (10, 100, 1000), 20,
                                reference, base_seed=1)
        sobol = convergence_study(model, "upper_sobol", (10, 100, 1000), 20,
                                  reference, base_seed=1)
        # more samples should not hurt (up to noise; non-strict)
        assert gas.top3_match_fraction[2] >= gas.top3_match_fraction[0]
        # slope scores dominate the noisy pick-freeze ranking at tiny n
        assert sobol.top3_match_fraction[0] < gas.top3_match_fraction[0]

    def test_input_validation(self):
        model = make_linear([1.0, 2.0])
        reference = np.array([2, 1])
        with pytest.raises(InputDomainError):
            convergence_study(model, "upper_sobol", (), 3, reference)
        with pytest.raises(InputDomainError):
            convergence_study(model, "upper_sobol", (100, 100), 3, reference)
        with pytest.raises(InputDomainError):
            convergence_study(model, "median", (10,), 3, reference)

    def test_table_shape(self):
        model = make_linear([1.0, 5.0])
        table = convergence_study(model, "upper_sobol", (16, 64), 4,
                                  np.array([2, 1]))
        assert set(table.ranks) == {(16, i) for i in range(4)} | {(64, i) for i in range(4)}
        assert table.full_match_fraction.shape == (2,)
        assert np.all(table.full_match_fraction >= 0.0)
        assert np.all(table.full_match_fraction <= 1.0)
