"""Normalization, rankings, report assembly, and convergence studies."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensyn import (DegenerateSpectrumError, InputDomainError, Model,
                    ModelOutputError, RngStream, Uniform, analytic_anova,
                    build_report, cli, convergence_study, estimate_c_gas,
                    gradient_matrix, lower_sobol, make_example1,
                    make_example2, make_example4, make_linear, normalize,
                    rank, report, sample_inputs, subspace, upper_sobol)
from sensyn.dgsm import DesignGradients
from sensyn.subspace import SlopeSample


def nan_rows_model() -> Model:
    """Three uniform inputs; NaN wherever the first input is below 0.01."""
    def f(x):
        y = x @ np.array([1.0, 2.0, 3.0])
        y[x[:, 0] < 0.01] = np.nan
        return y

    return Model(label="nan_rows", family="custom",
                 marginals=(Uniform(0.0, 1.0),) * 3, eval_fn=f)


def row_local_noisy_model() -> Model:
    """Noisy interaction model whose rows are computed by elementwise
    arithmetic only, so a row's output does not depend on the batch."""
    return Model(label="row_local", family="custom",
                 marginals=(Uniform(0.0, 1.0),) * 3, noise_scale=0.5,
                 eval_fn=lambda x: x[:, 0] + 2.0 * x[:, 1] * x[:, 2])


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
        gas = report.subspaces["gas"]
        assert 1 <= report.subspaces["as"].m <= 4 and 1 <= gas.m <= 4
        np.testing.assert_allclose(gas.scores_full,
                                   np.diag(np.zeros((4, 4))) + gas.scores_full)
        assert report.u1_alignment is None

    def test_subset_of_methods(self):
        report = build_report(make_example4(), seed=3, n=500, methods=("gas",))
        assert report.sobol_upper is None
        assert list(report.subspaces) == ["gas"]
        assert report.subspaces["gas"].scores_m is not None

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
        assert report.subspaces["gas"].m == 2

    def test_deterministic(self):
        a = build_report(make_example4(), seed=5, n=1_000)
        b = build_report(make_example4(), seed=5, n=1_000)
        np.testing.assert_array_equal(a.sobol_upper, b.sobol_upper)
        np.testing.assert_array_equal(a.subspaces["gas"].scores_full,
                                      b.subspaces["gas"].scores_full)
        np.testing.assert_array_equal(a.dgsm_raw, b.dgsm_raw)


# The estimators as they were before they read a shared design: each drew
# its own points.  Standalone calls must still reproduce them bit for bit,
# since bounds, convergence and GAS-only reports are built from them.  The
# lower indices, which only reports with Sobol' indices read, are checked
# against the one design layout instead.

def former_upper_sobol(model, n, rng):
    z = sample_inputs(model, n, rng.substream(0))
    noise = rng.substream(2)
    fz = model.evaluate(z, rng=noise.substream(0))
    sigma2 = float(np.var(fz, ddof=1))
    freeze = rng.substream(1)
    out = np.empty(model.d)
    for i in range(model.d):
        zi = z[:, i].copy()
        z[:, i] = model.marginals[i].inv_cdf(freeze.substream(i).uniforms(n))
        fzi = model.evaluate(z, rng=noise.substream(i + 1))
        z[:, i] = zi
        out[i] = np.mean((fz - fzi) ** 2) / (2.0 * sigma2)
    return out


def one_layout_lower_sobol(model, n, rng):
    """The lower indices in the stream layout every design shares: x on
    substream 0 with noise on 2, the freeze column y_i on 1 (child i) with
    noise child i + 1 of 2, and the third point w on 3 with its own noise
    on 4 (child 0 for f(w), child i + 1 for f(x_i, w_-i))."""
    x = sample_inputs(model, n, rng.substream(0))
    w = sample_inputs(model, n, rng.substream(3))
    noise, w_noise, freeze = rng.substream(2), rng.substream(4), rng.substream(1)
    fx = model.evaluate(x, rng=noise.substream(0))
    fw = model.evaluate(w, rng=w_noise.substream(0))
    sigma2 = float(np.var(fx, ddof=1))
    out = np.empty(model.d)
    for i in range(model.d):
        xi, wi = x[:, i].copy(), w[:, i].copy()
        x[:, i] = model.marginals[i].inv_cdf(freeze.substream(i).uniforms(n))
        w[:, i] = xi
        fxy = model.evaluate(x, rng=noise.substream(i + 1))
        fxw = model.evaluate(w, rng=w_noise.substream(i + 1))
        x[:, i], w[:, i] = xi, wi
        out[i] = np.mean((fx - fxy) * (fxw - fw)) / sigma2
    return out


def former_gradient_matrix(model, n, h, rng):
    z = sample_inputs(model, n, rng.substream(0))
    noise = rng.substream(2)
    fz = model.evaluate(z, rng=noise.substream(0))
    g = np.empty((n, model.d))
    for i in range(model.d):
        zi = z[:, i].copy()
        z[:, i] += h
        fzi = model.evaluate(z, rng=noise.substream(i + 1))
        z[:, i] = zi
        g[:, i] = (fzi - fz) / h
    return g


def former_estimate_c_gas(model, m1, m2, rng, slope_window=0.35):
    """The fresh slope path with boolean masks and one whole-column call per
    (freeze vector, input), weighted by :class:`SlopeSample`."""
    d = model.d
    z = sample_inputs(model, m1, rng.substream(0))
    eps = None
    if model.noise_scale > 0.0:
        eps = rng.substream(2).standard_normals(m1)
    fz = model.evaluate(z, noise=eps)
    gaps = np.array([max(slope_window * dist.scale, 1e-12 * dist.scale)
                     for dist in model.marginals])
    num = np.zeros((d, d))
    for j in range(m2):
        v = sample_inputs(model, m1, rng.substream(1).substream(j))
        redraw_j = rng.substream(3).substream(j)
        slopes = np.empty((m1, d))
        for i, dist in enumerate(model.marginals):
            a = z[:, i].copy()
            b = v[:, i]
            bad = np.abs(b - a) < gaps[i]
            nb = int(bad.sum())
            live = np.ones(m1, dtype=bool)
            if nb:
                b[bad], mass = subspace._partners(
                    dist, a[bad], gaps[i], redraw_j.substream(i).uniforms(nb))
                live[np.flatnonzero(bad)[mass == 0.0]] = False
            z[:, i] = b
            fb = fz.copy()  # a base with no admissible partner: quotient 0
            fb[live] = model.evaluate(z[live],
                                      noise=None if eps is None else eps[live])
            z[:, i] = a
            slopes[:, i] = np.where(live, fb - fz, 0.0) / np.where(live, b - a, 1.0)
        part, den = SlopeSample(model, z, slopes, slope_window).sums()
        num += part
    return num / m2 / den


def counting_rows(monkeypatch) -> list:
    """Count the rows every ``Model.evaluate`` call receives."""
    rows = [0]
    evaluate = Model.evaluate

    def counted(self, z, rng=None, noise=None):
        rows[0] += len(np.atleast_2d(z))
        return evaluate(self, z, rng=rng, noise=noise)

    monkeypatch.setattr(Model, "evaluate", counted)
    return rows


def counting_partners(monkeypatch) -> list:
    """Count the slope partners the window makes the estimators redraw."""
    replaced = [0]
    partners = subspace._partners

    def counted(dist, a, gap, u):
        replaced[0] += len(a)
        return partners(dist, a, gap, u)

    monkeypatch.setattr(subspace, "_partners", counted)
    return replaced


def counting_short_steps(monkeypatch) -> list:
    """Count the design pairs closer than h, which the design's gradients
    take as forward differences."""
    short = [0]

    class Counted(DesignGradients):
        def __call__(self, i, v, fv):
            short[0] += int(np.count_nonzero(np.abs(v - self.z[:, i]) < self.h))
            super().__call__(i, v, fv)

    monkeypatch.setattr(report, "DesignGradients", Counted)
    return short


def recorded_matrices(monkeypatch) -> dict:
    """The AS and GAS matrices ``build_report`` decomposes, by kind."""
    seen = {}
    decompose = report._decompose

    def recording(kind, matrix, *args):
        seen[kind] = matrix
        return decompose(kind, matrix, *args)

    monkeypatch.setattr(report, "_decompose", recording)
    return seen


MODELS = {"example1": make_example1, "example1_noisy": lambda: make_example1(1.0),
          "example2": make_example2, "example4": make_example4,
          "linear": lambda: make_linear([1.0, -2.0, 0.5])}


class TestSharedDesign:
    def test_example4_row_count(self, monkeypatch):
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        n, d = 10_000, 4
        build_report(make_example4(), seed=0, n=n)
        # design f(z), f(v_i, z_-i): n*(d+1); lower estimator's third point
        # f(w), f(z_i, w_-i): n*(d+1); gradients at the design's base: n*d;
        # slope matrix: one row per design pair inside the slope window
        assert rows[0] == n * (d + 1) + n * (d + 1) + n * d + replaced[0]
        assert (rows[0], replaced[0]) == (163_105, 23_105)
        # P(|u - u'| < 0.35) = 1 - 0.65**2 for two unit uniforms
        assert replaced[0] / (n * d) == pytest.approx(1 - 0.65**2, abs=0.01)

    def test_example1_row_count(self, monkeypatch):
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        short = counting_short_steps(monkeypatch)
        n, d = 10_000, 10
        build_report(make_example1(), seed=0, n=n)
        # the design and the lower estimator's third point: n*(2d+2); the
        # gradients are the design's quotients, but for one forward-difference
        # row per pair closer than h; one row per redrawn slope partner
        # (377,848 rows with n*d forward-difference rows)
        assert rows[0] == n * (2 * d + 2) + replaced[0] + short[0]
        assert (rows[0], replaced[0], short[0]) == (278_044, 57_848, 196)
        # P(|v - z| < h) = 2h - h**2 for two unit-width uniforms
        assert short[0] / (n * d) == pytest.approx(2e-3, abs=1e-3)

    def test_example1_gradients_match_the_forward_differences(self, monkeypatch):
        model = make_example1()
        read = build_report(model, seed=11, n=20_000)
        monkeypatch.setattr(report, "noise_free_multilinear", lambda model: False)
        fd = build_report(model, seed=11, n=20_000)
        np.testing.assert_allclose(read.dgsm_raw, fd.dgsm_raw, rtol=1e-12, atol=0.0)
        a, b = read.subspaces["as"], fd.subspaces["as"]
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=0.0,
                                   atol=1e-13 * b.eigenvalues[0])
        for field in ("first_eigenvector", "scores_m", "scores_full"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                       rtol=0.0, atol=1e-10)
        # nothing else reads the gradients
        for x, y in [(read.sobol_lower, fd.sobol_lower), (read.sobol_upper, fd.sobol_upper),
                     (read.subspaces["gas"].eigenvalues, fd.subspaces["gas"].eigenvalues),
                     (read.subspaces["gas"].scores_full, fd.subspaces["gas"].scores_full)]:
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("seed", [0, 9])
    def test_standalone_estimators_unchanged(self, name, seed):
        model = MODELS[name]()
        pairs = [
            (upper_sobol(model, 400, RngStream(seed)),
             former_upper_sobol(model, 400, RngStream(seed))),
            (lower_sobol(model, 400, RngStream(seed)),
             one_layout_lower_sobol(model, 400, RngStream(seed))),
            (gradient_matrix(model, 300, 1e-3, RngStream(seed)),
             former_gradient_matrix(model, 300, 1e-3, RngStream(seed))),
            (estimate_c_gas(model, 300, 1, RngStream(seed)),
             former_estimate_c_gas(model, 300, 1, RngStream(seed))),
            (estimate_c_gas(model, 200, 3, RngStream(seed), slope_window=0.6),
             former_estimate_c_gas(model, 200, 3, RngStream(seed), slope_window=0.6)),
        ]
        for got, former in pairs:
            assert got.tobytes() == former.tobytes()

    def test_noisy_model_keeps_its_own_slope_samples(self, monkeypatch):
        seen = recorded_matrices(monkeypatch)
        model = make_example1(noise_scale=1.0)
        build_report(model, seed=4, n=2_000)
        alone = estimate_c_gas(model, 2_000, 1, RngStream(4).substream(3))
        assert seen["GAS"].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("model_args", [["--model", "example1", "--noise", "1"],
                                            ["--model", "example4"]])
    def test_gas_only_report_unchanged(self, model_args, tmp_path, monkeypatch):
        argv = ["analyze", *model_args, "--methods", "gas", "--n", "3000",
                "--seed", "8"]
        blobs = []
        for former in (False, True):
            if former:
                monkeypatch.setattr(report, "estimate_c_gas", former_estimate_c_gas)
            out = tmp_path / f"gas_{former}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_linear_slope_matrix_is_exact(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the shared design should give the slope matrix")

        seen = recorded_matrices(monkeypatch)
        monkeypatch.setattr(report, "estimate_c_gas", unused)
        c = np.array([1.0, -2.0, 0.5, 3.0])
        build_report(make_linear(c), seed=2, n=3_000, methods=("sobol", "gas"))
        np.testing.assert_allclose(seen["GAS"], np.outer(c, c), rtol=0.0, atol=1e-12)


def affine(model: Model, a: float, b: float) -> Model:
    """``a * f + b`` on the same inputs."""
    return Model(label="affine", family="custom", marginals=model.marginals,
                 eval_fn=lambda z: a * model.eval_fn(z) + b)


class TestAffineInvariance:
    """Rescaling the output by a and shifting it by b leaves the Sobol'
    indices alone and scales DGSM, AS and GAS by a**2, up to rounding."""

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(["example1", "example4", "linear"]),
           a=st.floats(0.1, 20.0) | st.floats(-20.0, -0.1),
           b=st.floats(-100.0, 100.0),
           seed=st.integers(0, 2**32 - 1))
    def test_affine_output(self, name, a, b, seed):
        model = MODELS[name]()
        base = build_report(model, seed=seed, n=300)
        moved = build_report(affine(model, a, b), seed=seed, n=300)
        # rounding a*f + b loses |b|/|a| of f's digits, and a forward
        # difference over h = 1e-3 magnifies that loss a thousandfold
        shift = 1.0 + abs(b) / abs(a)
        for field in ("sobol_lower", "sobol_upper"):
            np.testing.assert_allclose(getattr(moved, field), getattr(base, field),
                                       rtol=0.0, atol=1e-12 * shift)
        tol = 1e-10 * shift
        pairs = [(base.dgsm_raw, moved.dgsm_raw)]
        pairs += [(getattr(base.subspaces[method], name),
                   getattr(moved.subspaces[method], name))
                  for method in ("as", "gas")
                  for name in ("eigenvalues", "scores_full")]
        for was, now in pairs:
            want = a * a * was
            np.testing.assert_allclose(now, want, rtol=tol,
                                       atol=tol * np.max(np.abs(want)))


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
    # with h = 1e-12 a forward difference straddles the indicator's jump only
    # where |theta . z| < 1e-12, so every difference is zero whatever the draw
    def test_all_zero_as_matrix_names_method(self):
        with pytest.raises(DegenerateSpectrumError,
                           match=r"AS matrix of model 'example2' is all zero at n=100"):
            build_report(make_example2(), seed=1, n=100, methods=("as",), h=1e-12)

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
        for sizes, n_seeds in (((10, 100), 0), ((10, 100), -2), ((1, 100), 3)):
            with pytest.raises(InputDomainError, match="at least"):
                convergence_study(model, "upper_sobol", sizes, n_seeds, reference)

    @pytest.mark.parametrize("name", ["row_local", "example1_noisy", "linear"])
    def test_upper_sobol_sizes_read_one_design_per_seed(self, name):
        model = (row_local_noisy_model() if name == "row_local"
                 else MODELS[name]())
        sizes, n_seeds = (10, 37, 400), 3
        table = convergence_study(model, "upper_sobol", sizes, n_seeds,
                                  np.arange(1, model.d + 1), base_seed=5)
        for size in sizes:
            for k in range(n_seeds):
                expected = upper_sobol(model, size, RngStream(5).substream(k))
                if name == "row_local":
                    np.testing.assert_array_equal(
                        table.score_vectors[(size, k)], expected)
                else:
                    # BLAS computes z @ c on the last rows of a short batch
                    # in another order, so f(z) agrees only to rounding
                    np.testing.assert_allclose(
                        table.score_vectors[(size, k)], expected, rtol=1e-12)

    def test_gas_scores_sizes_read_one_design_per_seed(self):
        model = make_example1(noise_scale=1.0)
        reference = np.arange(1, model.d + 1)
        table = convergence_study(model, "gas_scores", (10, 100, 400), 3,
                                  reference, base_seed=5)
        fewer = convergence_study(model, "gas_scores", (100, 400), 3,
                                  reference, base_seed=5)
        for k in range(3):
            largest = estimate_c_gas(model, 400, 1, RngStream(5).substream(k))
            np.testing.assert_allclose(table.score_vectors[(400, k)],
                                       np.diag(largest), rtol=1e-12)
            np.testing.assert_array_equal(table.score_vectors[(100, k)],
                                          fewer.score_vectors[(100, k)])
            sample, = subspace.slope_vectors(model, 400, 1,
                                             RngStream(5).substream(k))
            for size in (10, 100):
                prefix = SlopeSample(model, sample.z[:size],
                                     sample.slopes[:size], 0.35)
                np.testing.assert_allclose(
                    table.score_vectors[(size, k)],
                    np.diag(prefix.matrix()), rtol=1e-12)

    def test_rows_are_those_of_the_largest_size(self, monkeypatch):
        model = make_example1(noise_scale=1.0)
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        sizes, n_seeds, d = (10, 100, 1000), 4, model.d
        reference = np.arange(1, d + 1)
        convergence_study(model, "upper_sobol", sizes, n_seeds, reference)
        assert rows[0] == n_seeds * 1000 * (d + 1)
        rows[0] = 0
        convergence_study(model, "gas_scores", sizes, n_seeds, reference)
        # a redrawn slope partner is evaluated in its column, at no extra row
        assert rows[0] == n_seeds * 1000 * (d + 1)
        assert 0 < replaced[0] < n_seeds * 1000 * d

    def test_table_shape(self):
        model = make_linear([1.0, 5.0])
        table = convergence_study(model, "upper_sobol", (16, 64), 4,
                                  np.array([2, 1]))
        assert set(table.ranks) == {(16, i) for i in range(4)} | {(64, i) for i in range(4)}
        assert table.full_match_fraction.shape == (2,)
        assert np.all(table.full_match_fraction >= 0.0)
        assert np.all(table.full_match_fraction <= 1.0)
