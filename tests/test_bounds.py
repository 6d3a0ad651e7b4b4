"""Bound checks: hypotheses, verdicts, and their guarantees on built-ins."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, RngStream, bounds, cli,
                    check_dgsm_bounds, check_gas_bound_general,
                    check_gas_bound_uniform, check_quadratic_identity,
                    make_example1, make_example2, make_example4, make_linear,
                    make_quadratic_normal)
from sensyn.bounds import N_BATCHES, batch_statistics, quadratic_identity


def scaled(model, factor):
    """Same model with output multiplied by a constant."""
    return Model(label=f"{model.label}*{factor}", family=model.family,
                 marginals=model.marginals,
                 eval_fn=lambda z: factor * model.eval_fn(z),
                 noise_scale=model.noise_scale,
                 multilinear=model.multilinear,
                 output_range=model.output_range,
                 reference_direction=model.reference_direction)


class TestUniformSlopeBound:
    def test_example4_passes_with_positive_slack(self):
        model = make_example4()
        for m in (1, 2, 4):
            check = check_gas_bound_uniform(model, m, 2_000, RngStream(m))
            assert check.all_passed
            assert np.all(check.slack > 0.0)

    def test_single_input_analytic_slack(self):
        # f = x1 on (0,1): upper index 1, bound value v/(2 sigma2) = 6
        model = make_linear([1.0])
        check = check_gas_bound_uniform(model, 1, 4_000, RngStream(5))
        assert check.lhs[0] == pytest.approx(1.0, abs=0.05)
        assert check.rhs[0] == pytest.approx(6.0, abs=0.2)
        assert check.slack[0] == pytest.approx(5.0, abs=0.2)

    def test_requires_unit_cube(self):
        with pytest.raises(InputDomainError):
            check_gas_bound_uniform(make_example2(), 1, 100, RngStream(0))
        with pytest.raises(InputDomainError):
            check_gas_bound_uniform(make_example1(), 1, 100, RngStream(0))

    def test_m_domain(self):
        with pytest.raises(InputDomainError):
            check_gas_bound_uniform(make_example4(), 5, 100, RngStream(0))


class TestGeneralSlopeBound:
    def test_example2_constants_and_verdicts(self):
        model = make_example2()
        check = check_gas_bound_general(model, 0.01, model.d, 2_000, RngStream(1))
        assert check.details["b_prime"] == pytest.approx(3.289255274396612, abs=1e-9)
        assert check.details["kappa"] == pytest.approx(4.5983066034243985e-4,
                                                       rel=1e-9)
        assert check.details["a_prime"] == pytest.approx(-check.details["b_prime"],
                                                         abs=1e-12)
        assert check.all_passed

    def test_example2_all_m(self):
        model = make_example2()
        for m in (1, 5, 10):
            check = check_gas_bound_general(model, 0.01, m, 1_000, RngStream(m))
            assert check.all_passed

    def test_epsilon_guard(self):
        model = make_example2()
        for eps in (0.0, 0.5, 0.9, 1.0):
            with pytest.raises(InputDomainError):
                check_gas_bound_general(model, eps, 1, 100, RngStream(0))

    def test_unbounded_model_rejected(self):
        with pytest.raises(InputDomainError):
            check_gas_bound_general(make_example1(), 0.01, 1, 100, RngStream(0))


class TestQuadraticIdentity:
    def test_pinned_analytic_case(self):
        check = check_quadratic_identity(np.diag([2.0, 0.0]), [0.0, 1.0],
                                         10_000, RngStream(2))
        assert check.all_passed
        np.testing.assert_allclose(check.details["sigma2_times_upper"],
                                   [2.0, 1.0], rtol=0.02)
        np.testing.assert_allclose(check.details["gas_scores_full"],
                                   [2.0, 1.0], rtol=0.02)
        # gradient-score side stays an upper bound
        assert np.all(check.details["as_bound_slack"]
                      >= -5.0 * check.details["as_bound_slack_se"])

    def test_pure_linear_reduces_exactly(self):
        b = np.array([1.0, -2.0, 0.5])
        check = check_quadratic_identity(np.zeros((3, 3)), b, 2_000, RngStream(3))
        assert check.all_passed
        # the slope side is exact for a linear map; the pick-freeze side
        # carries plain Monte Carlo error
        np.testing.assert_allclose(check.details["gas_scores_full"], b**2,
                                   atol=1e-12)

    def test_random_quadratics_within_tolerance(self):
        rng = np.random.default_rng(4)
        for seed in range(2):
            a = rng.uniform(-1.0, 1.0, size=(5, 5))
            a = (a + a.T) / 2.0
            b = rng.uniform(-1.0, 1.0, size=5)
            check = check_quadratic_identity(a, b, 10_000, RngStream(40 + seed))
            assert check.all_passed

    def test_residual_shrinks_with_sample_size(self):
        a = np.diag([2.0, 0.0])
        b = [0.0, 1.0]
        med = {}
        for n in (1_000, 100_000):
            residuals = [np.max(check_quadratic_identity(
                a, b, n, RngStream(500 + s)).lhs) for s in range(10)]
            med[n] = np.median(residuals)
        assert med[100_000] < med[1_000]

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InputDomainError):
            check_quadratic_identity([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0],
                                     100, RngStream(0))


class TestDgsmBounds:
    def test_linear_equality(self):
        checks = {c.name: c for c in check_dgsm_bounds(
            make_linear([1.0, 2.0, 3.0]), 5_000, 1e-3, RngStream(5))}
        eq = checks["linear_dgsm_equality"]
        assert eq.skipped_reason is None
        assert eq.all_passed
        assert checks["dgsm_bound_unit_cube"].all_passed
        assert checks["as_score_bound_unit_cube"].all_passed

    def test_example4_positive_slack(self):
        checks = {c.name: c for c in check_dgsm_bounds(
            make_example4(), 5_000, 1e-3, RngStream(6))}
        assert checks["linear_dgsm_equality"].skipped_reason is not None
        cube = checks["dgsm_bound_unit_cube"]
        assert cube.all_passed and np.all(cube.slack > 0.0)
        assert checks["dgsm_bound_general"].all_passed

    def test_quadratic_distribution_constant(self):
        a = np.array([[1.0, 0.4], [0.4, -0.6]])
        checks = {c.name: c for c in check_dgsm_bounds(
            make_quadratic_normal(a, [0.3, 0.9]), 5_000, 1e-3, RngStream(7))}
        general = checks["dgsm_bound_general"]
        np.testing.assert_allclose(general.details["distribution_constants"],
                                   2.0 * np.pi)
        assert general.all_passed
        assert checks["dgsm_bound_unit_cube"].skipped_reason is not None
        assert checks["as_score_bound_general"].all_passed

    def test_discontinuous_model_is_skipped_without_sampling(self, monkeypatch):
        def evaluate(*args, **kwargs):
            raise AssertionError("no model evaluation expected")
        monkeypatch.setattr(Model, "evaluate", evaluate)
        checks = check_dgsm_bounds(make_example2(), 1_000, 1e-3, RngStream(8))
        assert [c.name for c in checks] == ["linear_dgsm_equality",
                                            "dgsm_bound_unit_cube",
                                            "dgsm_bound_general",
                                            "as_score_bound_general"]
        assert all(c.skipped_reason is not None for c in checks)


class TestScalingInvariance:
    def test_uniform_bound_sides_invariant(self):
        model = make_example4()
        base = check_gas_bound_uniform(model, 2, 2_000, RngStream(8))
        big = check_gas_bound_uniform(scaled(model, 7.0), 2, 2_000, RngStream(8))
        np.testing.assert_allclose(base.lhs, big.lhs, rtol=1e-9)
        np.testing.assert_allclose(base.rhs, big.rhs, rtol=1e-9)
        np.testing.assert_array_equal(base.passed, big.passed)


COUNTED = ("upper_sobol", "estimate_c_gas", "gradient_matrix", "estimate_variance")


def run_bounds(argv, tmp_path, monkeypatch):
    """Run ``sensyn bounds`` in-process; return the calls of each counted
    estimator, the model rows evaluated, and the spectra each slope score
    read, as ``(m, id(spectrum))`` in call order."""
    calls = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        def counted(*args, _name=name, _fn=getattr(bounds, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    read = []

    def recording_scores(spec, m, _fn=bounds.scores):
        read.append((m, id(spec)))
        return _fn(spec, m)
    monkeypatch.setattr(bounds, "scores", recording_scores)
    rows = [0]

    def counting_evaluate(self, z, *args, _fn=Model.evaluate, **kwargs):
        rows[0] += np.asarray(z).reshape(-1, self.d).shape[0]
        return _fn(self, z, *args, **kwargs)
    monkeypatch.setattr(Model, "evaluate", counting_evaluate)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bounds", *argv, "--out", "b.json"]) == 0
    return calls, rows[0], read


class TestBatchEngine:
    def test_example4_estimates_each_statistic_once_per_batch(self, tmp_path,
                                                               monkeypatch):
        calls, rows, _ = run_bounds(["--model", "example4", "--n", "10000",
                                     "--seed", "0"], tmp_path, monkeypatch)
        assert calls == dict.fromkeys(COUNTED, N_BATCHES)
        # per batch of 1,000 rows: 5,000 upper, 5,000 + redraws slope,
        # 1,000 variance, 5,000 gradients (376,147 rows with one loop per check)
        assert rows == 182_920

    def test_quadratic_shares_one_loop_between_identity_and_dgsm(self, tmp_path,
                                                                 monkeypatch):
        calls, _, _ = run_bounds(["--model", "quadratic", "--A", "diag:2,0",
                                  "--b", "0,1", "--n", "2000"], tmp_path, monkeypatch)
        assert calls == dict.fromkeys(COUNTED, N_BATCHES)

    def test_discontinuous_model_draws_no_gradients(self, tmp_path, monkeypatch):
        calls, _, _ = run_bounds(["--model", "example2", "--n", "2000"],
                                 tmp_path, monkeypatch)
        assert calls == {"upper_sobol": N_BATCHES, "estimate_c_gas": N_BATCHES,
                         "gradient_matrix": 0, "estimate_variance": N_BATCHES}

    def test_uniform_checks_read_the_same_spectra(self, tmp_path, monkeypatch):
        counted = []
        monkeypatch.setattr(bounds, "sym_eig",
                            lambda c, _fn=bounds.sym_eig: counted.append(1) or _fn(c))
        _, _, read = run_bounds(["--model", "example4", "--n", "2000"],
                                tmp_path, monkeypatch)
        # m = 1 then m = d read the slope spectra; the derivative checks follow
        first, second = read[:N_BATCHES], read[N_BATCHES:2 * N_BATCHES]
        assert [m for m, _ in first + second] == [1] * N_BATCHES + [4] * N_BATCHES
        assert len({spec for _, spec in first}) == N_BATCHES
        assert [spec for _, spec in second] == [spec for _, spec in first]
        # one slope and one gradient decomposition per batch
        assert len(counted) == 2 * N_BATCHES


class TestDetection:
    A = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.5]]
    B = [0.2, -0.4, 0.1]

    def test_quadratic_identity_fails_on_a_20_percent_slope_bias(self):
        # 5,000 rows per batch, the quadratic's size in the benchmark's bounds run
        stats = batch_statistics(make_quadratic_normal(self.A, self.B), 5_000,
                                 RngStream(11), gas=True, gradients=True)
        assert quadratic_identity(stats).all_passed
        biased = dataclasses.replace(stats, c_gas=[1.2 * c for c in stats.c_gas])
        assert not quadratic_identity(biased).all_passed
