"""Bound checks: hypotheses, verdicts, and their guarantees on built-ins."""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, ModelOutputError, RngStream,
                    Uniform, bounds, c_as_from_gradients, cli, gradient_matrix,
                    make_example1, make_example2, make_example4, make_linear,
                    make_quadratic_normal, sample_inputs, subspace, variance)
from sensyn.bounds import (N_BATCHES, BatchStatistics, applicable_checks,
                           batch_statistics, dgsm_bounds, gas_bound_general,
                           gas_bound_uniform, quadratic_identity)
from sensyn.dgsm import dgsm_from_gradients
from sensyn.subspace import PROBE_ROWS, GradientSlopes


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
            check = gas_bound_uniform(
                batch_statistics(model, 2_000, RngStream(m), gas=True), m)
            assert check.all_passed
            assert np.all(check.slack > 0.0)

    def test_single_input_analytic_slack(self):
        # f = x1 on (0,1): upper index 1, bound value v/(2 sigma2) = 6
        model = make_linear([1.0])
        check = gas_bound_uniform(
            batch_statistics(model, 4_000, RngStream(5), gas=True), 1)
        assert check.lhs[0] == pytest.approx(1.0, abs=0.05)
        assert check.rhs[0] == pytest.approx(6.0, abs=0.2)
        assert check.slack[0] == pytest.approx(5.0, abs=0.2)

    def test_requires_unit_cube(self):
        for model in (make_example2(), make_example1()):
            stats = batch_statistics(model, 100, RngStream(0), gas=True)
            with pytest.raises(InputDomainError):
                gas_bound_uniform(stats, 1)

    def test_m_domain(self):
        stats = batch_statistics(make_example4(), 100, RngStream(0), gas=True)
        with pytest.raises(InputDomainError):
            gas_bound_uniform(stats, 5)


class TestGeneralSlopeBound:
    def test_example2_constants_and_verdicts(self):
        model = make_example2()
        check = gas_bound_general(
            batch_statistics(model, 2_000, RngStream(1), gas=True), 0.01, model.d)
        assert check.details["b_prime"] == pytest.approx(3.289255274396612, abs=1e-9)
        assert check.details["kappa"] == pytest.approx(4.5983066034243985e-4,
                                                       rel=1e-9)
        assert check.details["a_prime"] == pytest.approx(-check.details["b_prime"],
                                                         abs=1e-12)
        assert check.all_passed

    def test_example2_all_m(self):
        model = make_example2()
        for m in (1, 5, 10):
            check = gas_bound_general(
                batch_statistics(model, 1_000, RngStream(m), gas=True), 0.01, m)
            assert check.all_passed

    def test_epsilon_guard(self):
        stats = batch_statistics(make_example2(), 100, RngStream(0), gas=True)
        for eps in (0.0, 0.5, 0.9, 1.0):
            with pytest.raises(InputDomainError):
                gas_bound_general(stats, eps, 1)

    def test_m_domain(self):
        stats = batch_statistics(make_example2(), 100, RngStream(0), gas=True)
        for m in (0, 11):
            with pytest.raises(InputDomainError, match=r"m must lie in 1\.\.10"):
                gas_bound_general(stats, 0.01, m)

    def test_unbounded_model_rejected(self):
        stats = batch_statistics(make_example1(), 100, RngStream(0), gas=True)
        with pytest.raises(InputDomainError):
            gas_bound_general(stats, 0.01, 1)

    def test_output_outside_the_declared_range_is_refused(self):
        # example2's outputs are 0 and 1; a range of (0, 0.1) would shrink
        # kappa a hundredfold, so the batches refuse it before any check
        model = dataclasses.replace(make_example2(), output_range=(0.0, 0.1))
        with pytest.raises(ModelOutputError, match=r"outside its declared output range"):
            batch_statistics(model, 200, RngStream(0), gas=True)

    def test_range_check_keeps_rows_and_bytes(self, tmp_path, monkeypatch):
        # the check reads only the design's outputs: with it and without it
        # example2 at its range of (0, 1) costs the same rows and writes the
        # same bytes
        argv = ["--model", "example2", "--n", "2000", "--seed", "4"]
        runs = []
        for checked in (True, False):
            with monkeypatch.context() as patch:
                if not checked:
                    patch.setattr(bounds, "_check_range", lambda model, y: None)
                _, rows, _, _ = run_bounds(argv, tmp_path, patch)
            runs.append((rows, (tmp_path / "b.json").read_bytes()))
        assert runs[0] == runs[1]


class TestQuadraticIdentity:
    def test_pinned_analytic_case(self):
        # at 40,000 rows the spread of sigma2 * T_1 over seeds is about
        # 0.0076, so the rtol 0.02 band on it is over 5 spreads wide
        check = quadratic_identity(batch_statistics(
            make_quadratic_normal(np.diag([2.0, 0.0]), [0.0, 1.0]), 40_000,
            RngStream(2), gas=True, gradients=True))
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
        check = quadratic_identity(batch_statistics(
            make_quadratic_normal(np.zeros((3, 3)), b), 2_000, RngStream(3),
            gas=True, gradients=True))
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
            check = quadratic_identity(batch_statistics(
                make_quadratic_normal(a, b), 10_000, RngStream(40 + seed),
                gas=True, gradients=True))
            assert check.all_passed

    def test_residual_shrinks_with_sample_size(self):
        model = make_quadratic_normal(np.diag([2.0, 0.0]), [0.0, 1.0])
        med = {}
        for n in (1_000, 20_000):  # rows per batch
            residuals = [np.max(quadratic_identity(batch_statistics(
                model, n, RngStream(500 + s), gas=True, gradients=True)).lhs)
                for s in range(10)]
            med[n] = np.median(residuals)
        assert med[20_000] < med[1_000]

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(InputDomainError):
            make_quadratic_normal([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])


class TestDgsmBounds:
    def test_linear_equality(self):
        checks = {c.name: c for c in dgsm_bounds(batch_statistics(
            make_linear([1.0, 2.0, 3.0]), 5_000, RngStream(5), gradients=True))}
        eq = checks["linear_dgsm_equality"]
        assert eq.skipped_reason is None
        assert eq.all_passed
        assert checks["dgsm_bound_unit_cube"].all_passed
        assert checks["as_score_bound_unit_cube"].all_passed

    def test_example4_positive_slack(self):
        checks = {c.name: c for c in dgsm_bounds(batch_statistics(
            make_example4(), 5_000, RngStream(6), gradients=True))}
        assert checks["linear_dgsm_equality"].skipped_reason is not None
        cube = checks["dgsm_bound_unit_cube"]
        assert cube.all_passed and np.all(cube.slack > 0.0)
        assert checks["dgsm_bound_general"].all_passed

    def test_quadratic_distribution_constant(self):
        a = np.array([[1.0, 0.4], [0.4, -0.6]])
        checks = {c.name: c for c in dgsm_bounds(batch_statistics(
            make_quadratic_normal(a, [0.3, 0.9]), 5_000, RngStream(7),
            gradients=True))}
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
        checks = dgsm_bounds(BatchStatistics(make_example2(), 1_000, [], []))
        assert [c.name for c in checks] == ["linear_dgsm_equality",
                                            "dgsm_bound_unit_cube",
                                            "dgsm_bound_general",
                                            "as_score_bound_general"]
        assert all(c.skipped_reason is not None for c in checks)


class TestScalingInvariance:
    def test_uniform_bound_sides_invariant(self):
        model = make_example4()
        base = gas_bound_uniform(
            batch_statistics(model, 2_000, RngStream(8), gas=True), 2)
        big = gas_bound_uniform(
            batch_statistics(scaled(model, 7.0), 2_000, RngStream(8), gas=True), 2)
        np.testing.assert_allclose(base.lhs, big.lhs, rtol=1e-9)
        np.testing.assert_allclose(base.rhs, big.rhs, rtol=1e-9)
        np.testing.assert_array_equal(base.passed, big.passed)


COUNTED = ("gradient_matrix",)
STANDALONE = {"upper_sobol": variance, "estimate_variance": variance,
              "estimate_c_gas": subspace}


def count_engine_calls(monkeypatch):
    """Count the batch engine's pick-freeze designs, its calls of the counted
    estimators, and any call of the standalone variance and fresh slope
    estimators."""
    calls = dict.fromkeys(("PickFreeze",) + COUNTED + tuple(STANDALONE), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    for name in COUNTED:
        monkeypatch.setattr(subspace, name, counting(name, getattr(subspace, name)))
    for name, module in STANDALONE.items():
        wrapper = counting(name, getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(bounds, name, wrapper, raising=False)
    monkeypatch.setattr(variance.PickFreeze, "__init__",
                        counting("PickFreeze", variance.PickFreeze.__init__))
    return calls


def run_bounds(argv, tmp_path, monkeypatch):
    """Run ``sensyn bounds`` in-process; return the engine's calls
    (:func:`count_engine_calls`), the model rows evaluated, the slope pairs
    replaced, and the spectra each slope score read, as ``(m, id(spectrum))``
    in call order."""
    calls = count_engine_calls(monkeypatch)
    read = []

    def recording_scores(spec, m, _fn=bounds.scores):
        read.append((m, id(spec)))
        return _fn(spec, m)
    monkeypatch.setattr(bounds, "scores", recording_scores)
    replaced = [0]

    def counting_partners(dist, a, gap, u, _fn=subspace._partners):
        replaced[0] += len(a)
        return _fn(dist, a, gap, u)
    monkeypatch.setattr(subspace, "_partners", counting_partners)
    rows = [0]

    def counting_evaluate(self, z, *args, _fn=Model.evaluate, **kwargs):
        rows[0] += np.asarray(z).reshape(-1, self.d).shape[0]
        return _fn(self, z, *args, **kwargs)
    monkeypatch.setattr(Model, "evaluate", counting_evaluate)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bounds", *argv, "--out", "b.json"]) == 0
    return calls, rows[0], replaced[0], read


def model_evaluated_batch(model, n, h, batch):
    """sigma2, the upper indices, the DGSM and the gradient matrix of one
    batch whose design rows the model evaluates itself, noise included, in
    the design's stream layout (:class:`~sensyn.variance.PickFreeze`)."""
    stream = batch.substream(0)
    z = sample_inputs(model, n, stream.substream(0))
    noise = stream.substream(2)
    fz = model.evaluate(z, rng=noise.substream(0))
    sigma2 = float(np.var(fz, ddof=1))
    upper = np.empty(model.d)
    for i, dist in enumerate(model.marginals):
        x = z.copy()
        x[:, i] = dist.inv_cdf(stream.substream(1).substream(i).uniforms(n))
        fv = model.evaluate(x, rng=noise.substream(i + 1))
        upper[i] = np.mean((fz - fv) ** 2) / (2.0 * sigma2)
    g = gradient_matrix(model, n, h, batch.substream(3), base=(z, fz))
    return sigma2, upper, dgsm_from_gradients(g), c_as_from_gradients(g)


def engine_calls(designs, c_gas, gradients):
    return {"PickFreeze": designs, "estimate_c_gas": c_gas,
            "gradient_matrix": gradients, "upper_sobol": 0, "estimate_variance": 0}


class TestBatchEngine:
    def test_example4_estimates_each_statistic_once_per_batch(self, tmp_path,
                                                               monkeypatch):
        calls, rows, replaced, _ = run_bounds(
            ["--model", "example4", "--n", "10000", "--seed", "0"],
            tmp_path, monkeypatch)
        # one design per batch; sigma2, the upper indices, the slope pairs and
        # the gradient base all come from it
        assert calls == engine_calls(N_BATCHES, 0, N_BATCHES)
        # per batch of n = 1,000 rows and d = 4: n(d+1) design rows, n*d
        # gradient rows, and one row per redrawn slope partner, none at a
        # differentiable model's default window of 0 (113,324 rows with
        # 23,324 partners at window 0.35, 136,648 with two rows per replaced
        # pair, 182,920 with one substream per statistic, 376,147 with one
        # loop per check)
        n, d = 1_000, 4
        assert rows == N_BATCHES * (n * (d + 1) + n * d) + replaced
        assert (rows, replaced) == (90_000, 0)

    def test_example4_redraws_the_partners_inside_a_window(self, tmp_path, monkeypatch):
        # the same batches at window 0.35: one row per partner inside it
        calls, rows, replaced, _ = run_bounds(
            ["--model", "example4", "--n", "10000", "--seed", "0", "--slope-window", "0.35"],
            tmp_path, monkeypatch)
        assert calls == engine_calls(N_BATCHES, 0, N_BATCHES)
        n, d = 1_000, 4
        assert rows == N_BATCHES * (n * (d + 1) + n * d) + replaced
        assert (rows, replaced) == (113_324, 23_324)

    def test_example4_reference_total(self, tmp_path, monkeypatch):
        # the benchmark's reference command at the default seed: per batch,
        # 5 design calls and 4 gradient calls, and at the default window of 0
        # no redrawn slope partner (113,324 rows in 130 calls at window 0.35,
        # with one call per input for its partners; 136,648 rows in 170 calls
        # with two calls and two rows per replaced pair)
        monkeypatch.delenv("SENSYN_SEED", raising=False)
        rows, calls = [0], [0]

        def counting_evaluate(self, z, *args, _fn=Model.evaluate, **kwargs):
            rows[0] += np.asarray(z).reshape(-1, self.d).shape[0]
            calls[0] += 1
            return _fn(self, z, *args, **kwargs)
        monkeypatch.setattr(Model, "evaluate", counting_evaluate)
        monkeypatch.chdir(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bounds", "--model", "example4", "--n", "10000"]) == 0
        assert (rows[0], calls[0]) == (90_000, 90)

    def test_example1_reads_its_gradients_off_each_design(self, tmp_path, monkeypatch):
        short = [0]  # design pairs closer than h: one forward-difference row each

        class Counted(GradientSlopes):
            def __call__(self, i, v, fv):
                short[0] += int(np.count_nonzero(np.abs(v - self.z[:, i]) < self.h))
                super().__call__(i, v, fv)
        monkeypatch.setattr(subspace, "GradientSlopes", Counted)
        calls, rows, replaced, _ = run_bounds(
            ["--model", "example1", "--n", "10000", "--seed", "0"], tmp_path, monkeypatch)
        assert calls == engine_calls(N_BATCHES, 0, 0)
        # per batch of n = 1,000 rows and d = 10: n(d+1) design rows, 8d rows
        # of the multilinear probe and one row per short step; no slope matrix
        # (110,198 rows without the probe, 210,000 with n*d forward-difference
        # rows per batch)
        n, d = 1_000, 10
        assert rows == N_BATCHES * (n * (d + 1) + PROBE_ROWS * d) + replaced + short[0]
        assert (rows, replaced, short[0]) == (110_998, 0, 198)

    def test_linear_reads_its_slope_matrix_off_each_design(self, tmp_path, monkeypatch):
        short = [0]  # design pairs closer than h: one forward-difference row each

        class Counted(GradientSlopes):
            def __call__(self, i, v, fv):
                short[0] += int(np.count_nonzero(np.abs(v - self.z[:, i]) < self.h))
                super().__call__(i, v, fv)
        monkeypatch.setattr(subspace, "GradientSlopes", Counted)
        calls, rows, replaced, _ = run_bounds(
            ["--model", "linear", "--c", "1,-2,0.5,3", "--n", "2000", "--seed", "0"],
            tmp_path, monkeypatch)
        assert calls == engine_calls(N_BATCHES, 0, 0)
        # per batch of n = 200 rows and d = 4: n(d+1) design rows, 8d rows of
        # the multilinear probe and one row per short step; the slope matrix
        # is the gradient matrix, so no partner is redrawn (10,014 rows
        # without the probe, 14,637 with 4,623 redrawn partners)
        n, d = 200, 4
        assert rows == N_BATCHES * (n * (d + 1) + PROBE_ROWS * d) + short[0]
        assert (rows, replaced, short[0]) == (10_334, 0, 14)
        stats = batch_statistics(make_linear([1.0, -2.0, 0.5, 3.0]), 2_000 // N_BATCHES,
                                 RngStream(0), gas=True, gradients=True)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stats.c_gas, stats.c_as))
        # every input passes every check, as with the windowed slope matrix
        written = json.loads((tmp_path / "b.json").read_text())["bounds"]
        assert {c["name"]: c["passed"] for c in written} == dict.fromkeys(
            ["gas_bound_uniform(m=1)", "gas_bound_uniform(m=4)", "linear_dgsm_equality",
             "dgsm_bound_unit_cube", "dgsm_bound_general", "as_score_bound_unit_cube"],
            [True] * d)

    @pytest.mark.parametrize("model", [make_example1(), make_linear([1.0, -2.0, 0.5])],
                             ids=["example1", "linear"])
    def test_design_gradients_match_the_forward_differences(self, model, monkeypatch):
        def run():
            return batch_statistics(model, 2_000, RngStream(8),
                                    gas=bounds.needs_slope_matrix(model), gradients=True)
        read = run()
        with monkeypatch.context() as patch:  # the batches of forward differences
            patch.setattr(subspace, "noise_free_multilinear", lambda model: False)
            fd = run()
        np.testing.assert_allclose(read.dgsm, fd.dgsm, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(read.c_as, fd.c_as, rtol=0.0,
                                   atol=1e-13 * np.max(fd.c_as))
        read_checks, fd_checks = (applicable_checks(stats, m=None, epsilon=0.01,
                                                    threshold=0.9) for stats in (read, fd))
        assert [c.name for c in read_checks] == [c.name for c in fd_checks]
        for a, b in zip(read_checks, fd_checks):
            np.testing.assert_array_equal(a.passed, b.passed)

    def test_quadratic_shares_one_loop_between_identity_and_dgsm(self, tmp_path,
                                                                 monkeypatch):
        calls, _, _, _ = run_bounds(["--model", "quadratic", "--A", "diag:2,0",
                                     "--b", "0,1", "--n", "2000"],
                                    tmp_path, monkeypatch)
        assert calls == engine_calls(N_BATCHES, 0, N_BATCHES)

    def test_discontinuous_model_draws_no_gradients(self, tmp_path, monkeypatch):
        calls, _, _, _ = run_bounds(["--model", "example2", "--n", "2000"],
                                    tmp_path, monkeypatch)
        assert calls == engine_calls(N_BATCHES, 0, 0)

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_noisy_model_reads_its_slope_matrix_off_each_design(self, k, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        rows = [0]

        def counting_evaluate(self, z, *args, _fn=Model.evaluate, **kwargs):
            rows[0] += len(z)
            return _fn(self, z, *args, **kwargs)
        model, n, h = make_example1(noise_scale=k), 200, 1e-3
        with monkeypatch.context() as patch:
            patch.setattr(Model, "evaluate", counting_evaluate)
            stats = batch_statistics(model, n, RngStream(4), gas=True, gradients=True)
        # one design per batch, whose pairs are the slope pairs: n(d+1) design
        # rows and n*d gradient rows per batch, no slope sample of its own and,
        # at the default window of 0, no redrawn partner (n(d+1) more rows per
        # batch with a slope sample of its own)
        assert calls == engine_calls(N_BATCHES, 0, N_BATCHES)
        assert rows[0] == N_BATCHES * (n * (model.d + 1) + n * model.d) == 42_000
        # the slope matrices are those of the noise-free model's design path,
        # byte for byte: the common-mode noise is left out, not cancelled
        with monkeypatch.context() as patch:
            patch.setattr(subspace, "noise_free_multilinear", lambda model: False)
            clean = batch_statistics(make_example1(), n, RngStream(4), gas=True)
        assert [c.tobytes() for c in stats.c_gas] == [c.tobytes() for c in clean.c_gas]
        # sigma2, the upper indices and the gradient statistics read the noisy
        # outputs, with the bytes of the model evaluating every row itself
        for b in range(N_BATCHES):
            sigma2, upper, dgsm, c_as = model_evaluated_batch(
                model, n, h, RngStream(4).substream(100 + b))
            assert stats.sigma2[b] == sigma2
            assert stats.upper[b].tobytes() == upper.tobytes()
            assert stats.dgsm[b].tobytes() == dgsm.tobytes()
            assert stats.c_as[b].tobytes() == c_as.tobytes()

    def test_uniform_checks_read_the_same_spectra(self, tmp_path, monkeypatch):
        counted = []  # matrices decomposed, per call
        monkeypatch.setattr(bounds, "psd_spectrum", lambda c, _fn=bounds.psd_spectrum:
                            counted.append(len(c)) or _fn(c))
        _, _, _, read = run_bounds(["--model", "example4", "--n", "2000"],
                                   tmp_path, monkeypatch)
        # m = 1 then m = d read the slope spectra; the derivative checks follow
        first, second = read[:N_BATCHES], read[N_BATCHES:2 * N_BATCHES]
        assert [m for m, _ in first + second] == [1] * N_BATCHES + [4] * N_BATCHES
        assert len({spec for _, spec in first}) == N_BATCHES
        assert [spec for _, spec in second] == [spec for _, spec in first]
        # one stack of the batches' slope matrices, then one of their
        # gradient matrices: one decomposition of each per batch
        assert counted == [N_BATCHES, N_BATCHES]

    def test_gradient_spectra_take_the_slope_rule(self):
        stats = batch_statistics(make_example1(), 200, RngStream(0), gas=True,
                                 gradients=True)

        def spectra_bytes(spectra):
            return [(s.eigenvalues.tobytes(), s.eigenvectors.tobytes()) for s in spectra]
        assert (spectra_bytes(stats.as_spectra)
                == spectra_bytes(subspace.psd_spectrum(np.stack(stats.c_as))))


class TestMissingStatistics:
    """A check that reads a statistic its batches lack names the keyword."""

    @pytest.mark.parametrize("model, asked, read, match", [
        (make_example4(), {}, lambda s: applicable_checks(
            s, m=None, epsilon=0.01, threshold=0.9), r"no c_gas: .* gas=True"),
        (make_quadratic_normal([[2.0, 0.0], [0.0, 1.0]], [0.0, 1.0]), {"gradients": True},
         quadratic_identity, r"no c_gas: .* gas=True"),
        (make_quadratic_normal([[2.0, 0.0], [0.0, 1.0]], [0.0, 1.0]), {"gas": True},
         quadratic_identity, r"no c_as: .* gradients=True"),
        (make_example4(), {"gas": True}, dgsm_bounds, r"no dgsm: .* gradients=True"),
        (make_example4(), {"gas": True}, lambda s: s.as_spectra,
         r"no c_as: .* gradients=True")],
        ids=["gas_spectra", "c_gas", "c_as", "dgsm", "as_spectra"])
    def test_names_the_keyword_that_asks_for_it(self, model, asked, read, match):
        stats = batch_statistics(model, 10, RngStream(0), **asked)
        with pytest.raises(InputDomainError, match=match):
            read(stats)


class TestSharedDesign:
    @pytest.mark.parametrize("model, n", [
        (make_example4(), 1_000),
        (make_quadratic_normal([[2.0, 0.5], [0.5, -1.0]], [0.2, -0.4]), 1_000),
        (make_example2(), 500)], ids=["example4", "quadratic", "example2"])
    def test_sigma2_scaling_leaves_every_verdict_unchanged(self, model, n,
                                                           monkeypatch):
        def run():
            stats = batch_statistics(model, n, RngStream(9),
                                     gas=bounds.needs_slope_matrix(model),
                                     gradients=model.differentiable)
            checks = applicable_checks(stats, m=None, epsilon=0.01, threshold=0.9)
            return [c for c in checks if c.skipped_reason is None]
        base = run()
        monkeypatch.setattr(variance, "_checked_variance",
                            lambda *args, _fn=variance._checked_variance:
                            1.7 * _fn(*args))
        biased = run()
        assert [c.name for c in biased] == [c.name for c in base]
        for b, c in zip(base, biased):
            np.testing.assert_array_equal(c.passed, b.passed)
            np.testing.assert_allclose(c.slack / c.tolerance,
                                       b.slack / b.tolerance, rtol=1e-9)

    def test_inactive_input_passes_with_both_sides_zero(self):
        stats = batch_statistics(make_linear([1.0, 2.0, 0.0]), 1_000,
                                 RngStream(3), gas=True, gradients=True)
        checks = {c.name: c for c in applicable_checks(stats, m=None, epsilon=0.01,
                                                       threshold=0.9)}
        assert all(c.all_passed for c in checks.values())
        for name in ("gas_bound_uniform(m=1)", "gas_bound_uniform(m=3)",
                     "linear_dgsm_equality", "dgsm_bound_unit_cube",
                     "dgsm_bound_general"):
            c = checks[name]
            assert (c.lhs[2], c.rhs[2], c.tolerance[2]) == (0.0, 0.0, 0.0), name


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

    def test_uniform_bound_fails_without_the_spill_term(self, monkeypatch):
        # the second input sits off the leading slope eigenvector, so its
        # score over m = 1 is near 0 and only lambda_2 covers its index
        model = Model(label="off_axis", family="off_axis",
                      marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
                      eval_fn=lambda x: 5.0 * x[:, 0] + 4.0 * (x[:, 1] - 0.5) ** 2)
        stats = batch_statistics(model, 1_000, RngStream(3), gas=True)
        assert gas_bound_uniform(stats, 1).all_passed
        monkeypatch.setattr(bounds, "_spilled_scores", bounds.scores)
        dropped = gas_bound_uniform(stats, 1)
        assert not dropped.all_passed
        assert list(dropped.passed) == [True, False]
