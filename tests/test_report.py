"""Normalization, rankings, report assembly, and convergence studies."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensyn import (DegenerateSpectrumError, InputDomainError, Model,
                    ModelOutputError, RngStream, Uniform, analytic_anova,
                    build_report, c_as_from_gradients, cli, convergence_study,
                    dgsm_from_gradients, estimate_c_gas, gradient_matrix,
                    indicator_upper_sobol, lower_sobol, make_example1,
                    make_example2, make_example4, make_linear, normalize,
                    rank, report, sample_inputs, subspace, upper_sobol)
from sensyn.dgsm import PROBE_ROWS, DesignGradients
from sensyn.output import convergence_to_dict
from sensyn.subspace import DesignSlopes, SlopeSample
from sensyn.variance import (PickFreeze, lower_from_gradients, sobol_from_design,
                             upper_from_design)


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

    @pytest.mark.parametrize("name, bad, match", [
        ("example4", {"m_override": 7}, r"m must lie in 1\.\.4"),
        ("example4", {"m_override": 0}, r"m must lie in 1\.\.4"),
        ("example4", {"threshold": 1.5}, r"threshold must lie in \[0, 1\)"),
        ("example4", {"threshold": -0.1}, r"threshold must lie in \[0, 1\)"),
        ("example4", {"slope_window": 0.95}, r"slope_window must lie in \[0, 0\.9\)"),
        ("example4", {"m1": 0}, r"m1 and m2 must be at least 1"),
        ("example4", {"m2": 0}, r"m1 and m2 must be at least 1"),
        # the design path of a multilinear model reads no window, but checks it
        ("example1", {"slope_window": 0.95}, r"slope_window must lie in \[0, 0\.9\)")])
    def test_bad_setting_fails_before_any_row(self, name, bad, match, monkeypatch):
        rows = counting_rows(monkeypatch)
        with pytest.raises(InputDomainError, match=match):
            build_report(MODELS[name](), seed=1, n=2_000, **bad)
        assert rows[0] == 0

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
    (freeze vector, input), reduced by :class:`SlopeSample`.  Every row is
    an evaluation of the model's noise-free part."""
    d = model.d
    clean = dataclasses.replace(model, noise_scale=0.0)
    z = sample_inputs(model, m1, rng.substream(0))
    fz = clean.evaluate(z)
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
            fb[live] = clean.evaluate(z[live])
            z[:, i] = a
            slopes[:, i] = np.where(live, fb - fz, 0.0) / np.where(live, b - a, 1.0)
        part, den = SlopeSample(model, z, slopes, slope_window).sums()
        num += part
    return num / m2 / den


def model_evaluated_base(model, n, rng):
    """The base points z of a pick-freeze design on ``rng`` and f(z) as the
    model itself evaluates them, noise included."""
    z = sample_inputs(model, n, rng.substream(0))
    return z, model.evaluate(z, rng=rng.substream(2).substream(0))


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
        built = build_report(make_example4(), seed=0, n=n)
        # design f(z), f(v_i, z_-i): n*(d+1); lower estimator's third point
        # f(w), f(z_i, w_-i): n*(d+1); gradients at the design's base: n*d;
        # slope matrix: one row per design pair inside the slope window, none
        # at a differentiable model's default window of 0
        assert rows[0] == n * (d + 1) + n * (d + 1) + n * d + replaced[0]
        assert (rows[0], replaced[0]) == (140_000, 0)
        assert built.slope_window == 0.0

    def test_example4_row_count_at_a_window(self, monkeypatch):
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        n, d = 10_000, 4
        build_report(make_example4(), seed=0, n=n, slope_window=0.35)
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
        # the design: n*(d+1); the gradients are the design's quotients, but
        # for one forward-difference row per pair closer than h, after the
        # probe of the multilinear promise on the first 8 rows per input,
        # 8d; the lower indices are the gradients' means and the slope matrix
        # is their matrix, so no third point is drawn and no slope partner is
        # redrawn (220,196 rows with Owen's third point, n*(d+1) more;
        # 278,044 with 57,848 redrawn partners as well, 377,848 with n*d
        # forward-difference rows as well)
        assert rows[0] == n * (d + 1) + short[0] + PROBE_ROWS * d
        assert (rows[0], replaced[0], short[0]) == (110_276, 0, 196)
        # P(|v - z| < h) = 2h - h**2 for two unit-width uniforms
        assert short[0] / (n * d) == pytest.approx(2e-3, abs=1e-3)

    def test_example1_gradients_match_the_forward_differences(self, monkeypatch):
        model = make_example1()
        seen = recorded_matrices(monkeypatch)
        read = build_report(model, seed=11, n=20_000)
        # on the design path the slope matrix is the gradient matrix
        assert seen["GAS"].tobytes() == seen["AS"].tobytes()
        monkeypatch.setattr(report, "noise_free_multilinear", lambda model: False)
        fd = build_report(model, seed=11, n=20_000, slope_window=0.35)
        np.testing.assert_allclose(read.dgsm_raw, fd.dgsm_raw, rtol=1e-12, atol=0.0)
        a, b = read.subspaces["as"], fd.subspaces["as"]
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=0.0,
                                   atol=1e-13 * b.eigenvalues[0])
        for field in ("first_eigenvector", "scores_m", "scores_full"):
            np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                       rtol=0.0, atol=1e-10)
        # the upper indices read no gradient
        assert read.sobol_upper.tobytes() == fd.sobol_upper.tobytes()
        # the lower indices are the design gradients' means; without the
        # predicate they are Owen's, from a third point on substream 3 of the
        # design's stream
        root = RngStream(11)
        design = PickFreeze(model, 20_000, root.substream(1))
        grads = DesignGradients(model, design.z, design.fz, 1e-3)
        _, sigma2 = upper_from_design(design, on_column=[grads])
        lower = lower_from_gradients(grads.matrix(), model.marginals, sigma2)
        assert read.sobol_lower.tobytes() == lower.tobytes()
        owen = sobol_from_design(PickFreeze(model, 20_000, root.substream(1)))
        assert fd.sobol_lower.tobytes() == owen.lower.tobytes()
        # without the predicate the slope matrix is the windowed one, its
        # partners redrawn on the report's substream 3
        design = PickFreeze(model, 20_000, root.substream(1))
        slopes = DesignSlopes(model, design.z, design.fz, root.substream(3), 0.35)
        upper_from_design(design, on_column=[slopes])
        assert seen["GAS"].tobytes() == slopes.matrix().tobytes()

    @pytest.mark.parametrize("model", [make_example1(noise_scale=1.0), make_example4()],
                             ids=["example1-noisy", "example4"])
    def test_other_models_keep_the_three_point_lower_indices(self, model):
        # a noisy or non-multilinear model's lower indices are Owen's, on the
        # report's design and its third point, byte for byte
        read = build_report(model, seed=5, n=3_000)
        design = PickFreeze(model, 3_000, RngStream(5).substream(1))
        assert read.sobol_lower.tobytes() == sobol_from_design(design).lower.tobytes()

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
            (estimate_c_gas(model, 300, 1, RngStream(seed), slope_window=0.35),
             former_estimate_c_gas(model, 300, 1, RngStream(seed))),
            # the default window: 0 for a differentiable model, 0.35 otherwise
            (estimate_c_gas(model, 300, 1, RngStream(seed)),
             former_estimate_c_gas(model, 300, 1, RngStream(seed),
                                   slope_window=0.0 if model.differentiable else 0.35)),
            (estimate_c_gas(model, 200, 3, RngStream(seed), slope_window=0.6),
             former_estimate_c_gas(model, 200, 3, RngStream(seed), slope_window=0.6)),
        ]
        for got, former in pairs:
            assert got.tobytes() == former.tobytes()

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_noisy_model_reads_its_slope_matrix_off_the_design(self, k, monkeypatch):
        seen = recorded_matrices(monkeypatch)
        model, n, seed, h = make_example1(noise_scale=k), 2_000, 4, 1e-3
        read = build_report(model, seed=seed, n=n)
        noisy = dict(seen)
        # the slope matrix is the noise-free model's on its design path, byte
        # for byte: the common-mode noise is left out, not cancelled
        with monkeypatch.context() as patch:
            patch.setattr(report, "noise_free_multilinear", lambda model: False)
            build_report(make_example1(), seed=seed, n=n)
        assert noisy["GAS"].tobytes() == seen["GAS"].tobytes()
        # every other field reads the noisy outputs, with the bytes of the
        # model evaluating each design row itself
        root = RngStream(seed)
        z, fz = model_evaluated_base(model, n, root.substream(1))
        assert read.sigma2_hat == float(np.var(fz, ddof=1))
        assert read.sobol_upper.tobytes() == former_upper_sobol(
            model, n, root.substream(1)).tobytes()
        assert read.sobol_lower.tobytes() == one_layout_lower_sobol(
            model, n, root.substream(1)).tobytes()
        g = gradient_matrix(model, n, h, root.substream(2), base=(z, fz))
        assert read.dgsm_raw.tobytes() == dgsm_from_gradients(g).tobytes()
        assert noisy["AS"].tobytes() == c_as_from_gradients(g).tobytes()

    def test_noisy_example1_row_count(self, monkeypatch):
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        n, d = 10_000, 10
        build_report(make_example1(noise_scale=1.0), seed=0, n=n)
        # the design: n*(d+1); the lower indices' third point: n*(d+1); the
        # forward-difference gradients from the design's base: n*d; the slope
        # matrix reads the design's pairs, and at the default window of 0
        # redraws none (430,000 rows with a slope sample of its own, n*(d+1)
        # more)
        assert rows[0] == 2 * n * (d + 1) + n * d + replaced[0]
        assert (rows[0], replaced[0]) == (320_000, 0)

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
                 eval_fn=lambda z: a * model.eval_fn(z) + b,
                 multilinear=model.multilinear)


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


def permuted(model: Model, perm) -> Model:
    """``model`` with its inputs reordered: input j of the result is input
    ``perm[j]`` of ``model``, so its scores are ``model``'s indexed by perm."""
    inverse = np.argsort(perm)
    return Model(label=model.label, family="custom",
                 marginals=tuple(model.marginals[k] for k in perm),
                 eval_fn=lambda z: model.eval_fn(z[:, inverse]),
                 multilinear=model.multilinear, differentiable=model.differentiable)


class TestPermutedInputs:
    """Reordering the inputs reorders every score.  Column i of a design
    draws on child i of its stream, so a reordered model draws other values
    for each input: only a model whose estimates carry no sampling error
    can agree to rounding."""

    PERM = [2, 0, 3, 1]

    def test_linear_scores_permute_to_rounding(self, monkeypatch):
        seen = recorded_matrices(monkeypatch)
        c = np.array([1.0, -2.0, 0.5, 3.0])
        base = build_report(make_linear(c), seed=5, n=2_000)
        base_gas = seen["GAS"]
        moved = build_report(make_linear(c[self.PERM]), seed=5, n=2_000)
        pairs = [(base.dgsm_raw, moved.dgsm_raw)]
        pairs += [(base.subspaces[kind].scores_full, moved.subspaces[kind].scores_full)
                  for kind in ("as", "gas")]
        for was, now in pairs:
            np.testing.assert_allclose(now, was[self.PERM], rtol=1e-12, atol=0.0)
        want = base_gas[np.ix_(self.PERM, self.PERM)]
        np.testing.assert_allclose(seen["GAS"], want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_example4_scores_permute_within_their_errors(self):
        model = make_example4()
        moved = permuted(model, self.PERM)
        replicates = 20

        def estimates(m, first_seed):
            reports = [build_report(m, seed=first_seed + r, n=4_000,
                                    methods=("sobol", "gas"))
                       for r in range(replicates)]
            return {"sobol_upper": np.array([r.sobol_upper for r in reports]),
                    "gas": np.array([r.subspaces["gas"].scores_full for r in reports])}

        base, now = estimates(model, 0), estimates(moved, 1_000)
        for name in ("sobol_upper", "gas"):
            was = base[name][:, self.PERM]
            se = np.sqrt((was.var(axis=0, ddof=1) + now[name].var(axis=0, ddof=1))
                         / replicates)
            gap = np.abs(now[name].mean(axis=0) - was.mean(axis=0))
            assert np.all(gap <= 6.0 * se), (name, gap / se)


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

    @pytest.mark.parametrize("reference", [[1, 1, 1, 1], [0, 7, 2, 3], [1, 2, 3],
                                           [1.7, 2, 3, 4]])
    def test_reference_must_be_a_permutation(self, reference, monkeypatch):
        rows = counting_rows(monkeypatch)
        with pytest.raises(InputDomainError, match="permutation of 1..d"):
            convergence_study(make_example4(), "upper_sobol", (10, 100), 2, reference)
        assert rows[0] == 0

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
            assert table.slope_window == sample.slope_window == 0.0
            for size in (10, 100):
                prefix = SlopeSample(model, sample.z[:size],
                                     sample.slopes[:size], sample.slope_window)
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
        convergence_study(model, "gas_scores", sizes, n_seeds, reference,
                          slope_window=0.35)
        # a redrawn slope partner is evaluated in its column, at no extra row
        assert rows[0] == n_seeds * 1000 * (d + 1)
        assert 0 < replaced[0] < n_seeds * 1000 * d
        rows[0] = replaced[0] = 0
        # and the default window of 0 redraws none
        convergence_study(model, "gas_scores", sizes, n_seeds, reference)
        assert (rows[0], replaced[0]) == (n_seeds * 1000 * (d + 1), 0)

    @pytest.mark.parametrize("k", [0.5, 1.0])
    def test_both_tables_read_one_design_per_seed(self, k, monkeypatch):
        model = make_example1(noise_scale=k)
        sizes, n_seeds, d = (10, 100, 1000), 4, model.d
        reference = rank(analytic_anova(model).upper)
        both = ("upper_sobol", "gas_scores")
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        sobol, gas = convergence_study(model, both, sizes, n_seeds, reference)
        # one design per seed serves both tables, n_max*(d+1) rows, and at the
        # default window of 0 no partner is redrawn (twice the rows with a
        # slope sample of its own)
        assert (rows[0], replaced[0]) == (n_seeds * 1000 * (d + 1), 0) == (44_000, 0)
        # the upper_sobol table is the lone table's, byte for byte, and at the
        # largest size that of the model evaluating each design row itself
        alone = convergence_study(model, "upper_sobol", sizes, n_seeds, reference)
        assert convergence_to_dict(sobol) == convergence_to_dict(alone)
        for seed_idx in range(n_seeds):
            former = former_upper_sobol(model, 1000, RngStream(0).substream(seed_idx))
            assert sobol.score_vectors[(1000, seed_idx)].tobytes() == former.tobytes()
        # the gas_scores table is the noise-free model's, byte for byte
        _, clean = convergence_study(make_example1(), both, sizes, n_seeds, reference)
        assert gas.slope_window == clean.slope_window == 0.0
        for key, scores in clean.score_vectors.items():
            assert gas.score_vectors[key].tobytes() == scores.tobytes()
        for field in ("mean_scores", "full_match_fraction", "top3_match_fraction"):
            assert getattr(gas, field).tobytes() == getattr(clean, field).tobytes()

    def test_both_tables_at_a_window_redraw_partners_one_row_each(self, monkeypatch):
        model = make_example1(noise_scale=1.0)
        n_seeds, d = 4, model.d
        reference = rank(analytic_anova(model).upper)
        both = ("upper_sobol", "gas_scores")
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        _, gas = convergence_study(model, both, (10, 100, 1000), n_seeds, reference,
                                   slope_window=0.35)
        # the design's rows, plus one row per redrawn partner
        assert rows[0] == n_seeds * 1000 * (d + 1) + replaced[0]
        assert (rows[0], replaced[0]) == (67_191, 23_191)
        # P(|u - u'| < 0.35) = 1 - 0.65**2 for two uniforms of one width
        assert replaced[0] / (n_seeds * 1000 * d) == pytest.approx(1 - 0.65**2, abs=0.02)
        # the sizes read prefixes of one design per seed, so a shorter
        # ladder with the same largest size gives the same scores
        _, fewer = convergence_study(model, both, (100, 1000), n_seeds, reference,
                                     slope_window=0.35)
        for seed_idx in range(n_seeds):
            for size in (100, 1000):
                assert (gas.score_vectors[(size, seed_idx)].tobytes()
                        == fewer.score_vectors[(size, seed_idx)].tobytes())
        # seed k's design is on substream k, its partners redrawn on
        # substream 5 of that, clear of the design's substreams 0-4
        cell = RngStream(0).substream(2)
        design = PickFreeze(model, 1000, cell)
        slopes = DesignSlopes(model, design.z, design.clean_fz, cell.substream(5), 0.35)
        upper_from_design(design, on_column=[slopes])
        for size in (10, 100, 1000):
            assert gas.score_vectors[(size, 2)].tobytes() == slopes.diagonal(size).tobytes()

    def test_example2_both_tables_row_count(self, monkeypatch):
        model = make_example2()
        reference = rank(indicator_upper_sobol(model.reference_direction))
        rows = counting_rows(monkeypatch)
        replaced = counting_partners(monkeypatch)
        tables = convergence_study(model, ["upper_sobol", "gas_scores"],
                                   (10, 100, 1000), 4, reference)
        assert [t.method for t in tables] == ["upper_sobol", "gas_scores"]
        # a discontinuous model's default window of 0.35 redraws the partners
        # of the design pairs inside it, one row each (88,000 rows with a
        # slope sample of its own, whose redraws cost no row)
        assert rows[0] == 4 * 1000 * (model.d + 1) + replaced[0]
        assert (rows[0], replaced[0]) == (51_867, 7_867)

    def test_table_shape(self):
        model = make_linear([1.0, 5.0])
        table = convergence_study(model, "upper_sobol", (16, 64), 4,
                                  np.array([2, 1]))
        assert set(table.ranks) == {(16, i) for i in range(4)} | {(64, i) for i in range(4)}
        assert table.full_match_fraction.shape == (2,)
        assert np.all(table.full_match_fraction >= 0.0)
        assert np.all(table.full_match_fraction <= 1.0)
