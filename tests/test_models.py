"""Built-in models, their marginals, and the analytic ANOVA oracles."""

import importlib

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, ModelOutputError, Normal,
                    RngStream, Uniform, analytic_anova, estimate_c_gas,
                    gradient_matrix, indicator_upper_sobol, lower_sobol,
                    make_builtin, make_example1, make_example2, make_example4,
                    make_linear, make_quadratic_normal, rank, sample_inputs,
                    upper_sobol)
from sensyn.randkit import _BLOCK_DRAWS
from sensyn.subspace import slope_vectors
from sensyn.variance import PickFreeze, upper_from_design

EX1_SIGMA2 = 385.0 / 12.0 + 200.0 / 144.0  # = 33.4722...
EX4_SIGMA2 = 4.0 / 12.0 + 2500.0 / 135168.0


class TestEvaluation:
    def test_example1_odd_at_center(self):
        model = make_example1()
        assert model.evaluate(np.zeros(10)) == 0.0

    def test_example2_indicator_values(self):
        model = make_example2()
        theta = model.reference_direction
        assert model.evaluate(theta * 1.0) == 1.0  # theta.z = |theta|^2 = 1
        assert model.evaluate(-theta) == 0.0

    @pytest.mark.parametrize("x, want", [
        # 0.5 + 0.5 - 0.5 - 0.5 + 50 * 0.5 * 0.5**5
        ([1.0, 1.0, 0.0, 0.0], 0.78125),
        # dyadic points with x2 < 1/2, where every operation is exact:
        # 0.5 - 0.5 - 0.25 + 0.25 + 50 * 0.5 * (-0.5)**5
        ([1.0, 0.0, 0.25, 0.75], -0.78125),
        # -0.25 - 0.375 + 0.5 + 0 + 50 * (-0.25) * (-0.375)**5 = -2117 / 2**16
        ([0.25, 0.125, 1.0, 0.5], -2117 / 2**16),
    ])
    def test_example4_pinned_point(self, x, want):
        assert make_example4().evaluate(np.array(x)) == want

    def test_example4_interaction_exactly_odd(self):
        # x = k / 2**52 makes both x2 - 1/2 and (1 - x2) - 1/2 exact, so the
        # reflection of x2 about 1/2 negates its centered value exactly
        k = np.random.default_rng(15).integers(0, 2**52, size=(100_000, 4))
        x = k * 2.0**-52
        mirrored = x.copy()
        mirrored[:, 1] = 1.0 - x[:, 1]
        np.testing.assert_array_equal(mirrored[:, 1] - 0.5, -(x[:, 1] - 0.5))
        term = make_example4(c=(0.0, 0.0, 0.0, 0.0))  # c12 * y1 * y2**5 alone
        np.testing.assert_array_equal(term.evaluate(mirrored), -term.evaluate(x))

    def test_quadratic_form(self):
        model = make_quadratic_normal(np.diag([2.0, 0.0]), [0.0, 1.0])
        z = np.array([[1.5, -2.0], [0.0, 3.0]])
        np.testing.assert_allclose(model.evaluate(z), [1.5**2 - 2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InputDomainError):
            make_example4().evaluate(np.zeros(3))

    def test_noise_requires_stream(self):
        model = make_example1(noise_scale=1.0)
        with pytest.raises(InputDomainError):
            model.evaluate(np.zeros((4, 10)))
        got = model.evaluate(np.zeros((4, 10)), rng=RngStream(0))
        assert np.all(got != 0.0)

    def test_explicit_noise_is_deterministic(self):
        model = make_example1(noise_scale=2.0)
        eps = np.array([1.0, -1.0])
        got = model.evaluate(np.zeros((2, 10)), noise=eps)
        np.testing.assert_allclose(got, [2.0, -2.0])


class TestOutputValidation:
    @staticmethod
    def model(eval_fn, noise_scale=0.0):
        return Model(label="custom", family="custom",
                     marginals=(Uniform(0.0, 1.0),) * 3, eval_fn=eval_fn,
                     noise_scale=noise_scale)

    def test_non_finite_rows_named(self):
        def f(x):
            y = x.sum(axis=1)
            y[[2, 5]] = [np.nan, np.inf]
            return y

        with pytest.raises(ModelOutputError,
                           match=r"'custom' returned 2 non-finite .* first at row 2"):
            self.model(f).evaluate(np.zeros((8, 3)))

    def test_broadcast_shape_rejected(self):
        with pytest.raises(ModelOutputError, match=r"shape \(8, 3\); expected \(8,\)"):
            self.model(lambda x: 2.0 * x).evaluate(np.zeros((8, 3)))

    def test_scalar_output_rejected(self):
        with pytest.raises(ModelOutputError):
            self.model(lambda x: 1.0).evaluate(np.zeros((4, 3)))

    def test_checked_before_noise(self):
        # noise is finite, so the raw output alone decides
        model = self.model(lambda x: np.full(len(x), np.nan), noise_scale=1.0)
        with pytest.raises(ModelOutputError):
            model.evaluate(np.zeros((3, 3)), noise=np.zeros(3))

    def test_is_value_error(self):
        assert issubclass(ModelOutputError, ValueError)
        assert not issubclass(ModelOutputError, InputDomainError)


class Recorder:
    """A model map that keeps a copy of every batch it is given."""

    def __init__(self):
        self.batches = []

    def __call__(self, z):
        self.batches.append(np.array(z))
        return z @ np.array([1.0, 2.0, 3.0]) + z[:, 0] * z[:, 1]


def differs_in_column(batch, base, i):
    """True when ``batch`` equals ``base`` outside column i and every row
    differs from it in column i."""
    return (np.array_equal(np.delete(batch, i, axis=1), np.delete(base, i, axis=1))
            and bool(np.all(batch[:, i] != base[:, i])))


class FailsOnCall:
    """A model map that returns NaN in every row at its k-th call."""

    def __init__(self, k):
        self.k, self.calls = k, 0

    def __call__(self, z):
        self.calls += 1
        y = z.sum(axis=1)
        return np.full(len(z), np.nan) if self.calls == self.k else y


def _gradients_from_base(model):
    z = sample_inputs(model, 200, RngStream(7))
    as_drawn = z.copy()
    fz = model.evaluate(z)
    with pytest.raises(ModelOutputError):
        gradient_matrix(model, 200, 1e-3, RngStream(7), base=(z, fz))
    return z, as_drawn


def _pick_freeze_upper(model):
    design = PickFreeze(model, 200, RngStream(8))
    as_drawn = design.z.copy()
    with pytest.raises(ModelOutputError):
        upper_from_design(design)
    return design.z, as_drawn


class TestDesignIsolation:
    """Estimators overwrite one design column in place per input: each
    evaluated batch must differ from its base in exactly that column, and the
    design must come back intact."""

    N = 200

    @staticmethod
    def model(eval_fn):
        return Model(label="custom", family="custom",
                     marginals=(Uniform(0.0, 1.0),) * 3, eval_fn=eval_fn)

    @pytest.fixture
    def designs(self, monkeypatch):
        """Every design ``sample_inputs`` hands an estimator, with a copy of
        it as drawn."""
        drawn = []

        def recording_sample_inputs(model, n, rng):
            z = sample_inputs(model, n, rng)
            drawn.append((z, z.copy()))
            return z

        for name in ("variance", "dgsm", "subspace"):
            module = importlib.import_module(f"sensyn.{name}")
            monkeypatch.setattr(module, "sample_inputs", recording_sample_inputs)
        return drawn

    @staticmethod
    def assert_intact(designs):
        assert designs
        for z, as_drawn in designs:
            assert z.tobytes() == as_drawn.tobytes()

    def test_upper_sobol(self, designs):
        rec = Recorder()
        upper_sobol(self.model(rec), self.N, RngStream(1))
        base, *swapped = rec.batches
        assert len(swapped) == 3
        assert all(differs_in_column(b, base, i) for i, b in enumerate(swapped))
        self.assert_intact(designs)

    def test_lower_sobol(self, designs):
        rec = Recorder()
        lower_sobol(self.model(rec), self.N, RngStream(2))
        x, z, *swapped = rec.batches
        assert len(swapped) == 6
        for i in range(3):
            assert differs_in_column(swapped[2 * i], x, i)
            assert differs_in_column(swapped[2 * i + 1], z, i)
            np.testing.assert_array_equal(swapped[2 * i + 1][:, i], x[:, i])
        self.assert_intact(designs)

    def test_gradient_matrix(self, designs):
        rec = Recorder()
        gradient_matrix(self.model(rec), self.N, 1e-3, RngStream(3))
        base, *shifted = rec.batches
        assert len(shifted) == 3
        for i, b in enumerate(shifted):
            assert differs_in_column(b, base, i)
            np.testing.assert_array_equal(b[:, i], base[:, i] + 1e-3)
        self.assert_intact(designs)

    def test_estimate_c_gas(self, designs):
        rec = Recorder()
        estimate_c_gas(self.model(rec), self.N, 2, RngStream(4), slope_window=0.35)
        base, *rest = rec.batches
        # f(b, z_-i) per (freeze vector, input): the whole design, column i
        # swapped for the partners, those inside the window redrawn first
        assert len(rest) == 6
        for k, b in enumerate(rest):
            assert len(b) == self.N
            assert differs_in_column(b, base, k % 3)
        # the freeze designs v take the redrawn partners; the base must not
        self.assert_intact(designs[:1])

    @pytest.mark.parametrize("run", [_gradients_from_base, _pick_freeze_upper],
                             ids=["gradient_matrix_base", "upper_from_design"])
    def test_failing_model_leaves_the_design_intact(self, run):
        # the third call evaluates the second input's column and fails
        z, as_drawn = run(self.model(FailsOnCall(3)))
        assert z.tobytes() == as_drawn.tobytes()

    def test_failing_model_leaves_the_slope_base_intact(self, designs):
        samples = slope_vectors(self.model(FailsOnCall(3)), self.N, 1, RngStream(9))
        with pytest.raises(ModelOutputError):
            next(samples)
        # the freeze vector takes the redrawn partners; the base must not
        self.assert_intact(designs[:1])

    @pytest.mark.parametrize("estimator", [
        lambda m: upper_sobol(m, 50, RngStream(5)),
        lambda m: lower_sobol(m, 50, RngStream(5)),
        lambda m: gradient_matrix(m, 50, 1e-3, RngStream(5)),
        lambda m: estimate_c_gas(m, 50, 1, RngStream(5)),
    ])
    def test_model_writing_its_input_raises(self, estimator):
        def writer(z):
            z[:, 0] = 0.5
            return z.sum(axis=1)

        with pytest.raises(ValueError, match="read-only"):
            estimator(self.model(writer))

    @pytest.mark.parametrize("estimator", [
        lambda m: upper_sobol(m, 50, RngStream(5)),
        lambda m: lower_sobol(m, 50, RngStream(5)),
        lambda m: gradient_matrix(m, 50, 1e-3, RngStream(5)),
        lambda m: estimate_c_gas(m, 50, 1, RngStream(5)),
    ], ids=["upper_sobol", "lower_sobol", "gradient_matrix", "estimate_c_gas"])
    def test_model_writing_a_copy_of_its_input_works(self, estimator):
        # the remedy for an eval_fn that needs a writable buffer
        def writer_on_copy(z):
            w = np.array(z, copy=True)
            w *= 2.0
            return 0.5 * w.sum(axis=1)

        got = estimator(self.model(writer_on_copy))
        expected = estimator(self.model(lambda z: z.sum(axis=1)))
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()

    def test_caller_array_stays_writable(self):
        z = np.zeros((4, 3))
        self.model(lambda x: x.sum(axis=1)).evaluate(z)
        assert z.flags.writeable

    def test_output_viewing_the_input_is_copied(self):
        # the output must not follow the design's later column swaps
        view = upper_sobol(self.model(lambda z: z[:, 0]), 2000, RngStream(6))
        copy = upper_sobol(self.model(lambda z: z[:, 0].copy()), 2000, RngStream(6))
        assert view.tobytes() == copy.tobytes()
        assert view[0] > 0.5 and view[1] == view[2] == 0.0


class TestConstruction:
    def test_example1_marginals(self):
        model = make_builtin("example1", noise_scale=0.0)
        assert model.d == 10
        assert all(m == Uniform(-0.5, 0.5) for m in model.marginals)

    def test_example4_marginals(self):
        model = make_builtin("example4")
        assert model.d == 4
        assert all(m == Uniform(0.0, 1.0) for m in model.marginals)

    def test_example2_direction_unit_norm(self):
        model = make_example2()
        assert np.linalg.norm(model.reference_direction) == pytest.approx(1.0, abs=1e-12)
        assert all(m == Normal(0.0, 1.0) for m in model.marginals)

    def test_example2_nonunit_direction_warns(self):
        with pytest.warns(UserWarning):
            model = make_example2(direction=[3.0, 4.0])
        np.testing.assert_allclose(model.reference_direction, [0.6, 0.8])

    def test_quadratic_rejects_asymmetric(self):
        with pytest.raises(InputDomainError):
            make_quadratic_normal([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])

    def test_unknown_builtin(self):
        with pytest.raises(InputDomainError):
            make_builtin("example3")

    @pytest.mark.parametrize("factory, params, name", [
        (make_example1, {"noise_scale": float("nan")}, "noise_scale"),
        (make_example1, {"noise_scale": float("inf")}, "noise_scale"),
        (make_example2, {"direction": [1.0, float("inf"), 0.0]}, "direction"),
        (make_example4, {"c": [1.0, float("nan"), 1.0, 1.0]}, "c"),
        (make_example4, {"c12": 1e309}, "c12"),
        (make_linear, {"coefficients": [1.0, float("nan")]}, "coefficients"),
        (make_linear, {"coefficients": [1.0, 2.0],
                       "intervals": [(0.0, 1.0), (0.0, float("inf"))]}, "intervals"),
        (make_quadratic_normal, {"a_matrix": [[1.0, 0.0], [0.0, float("nan")]],
                                 "b": [0.0, 0.0]}, "A"),
        (make_quadratic_normal, {"a_matrix": np.eye(2),
                                 "b": [float("-inf"), 0.0]}, "b"),
    ])
    def test_non_finite_parameter_rejected(self, factory, params, name):
        with pytest.raises(InputDomainError, match=f"parameter '{name}' must be finite"):
            factory(**params)


class TestAnalyticAnova:
    def test_example1_sigma2_and_pinned_indices(self):
        oracle = analytic_anova(make_example1())
        assert oracle.sigma2 == pytest.approx(EX1_SIGMA2, rel=1e-14)
        assert oracle.upper[9] == pytest.approx(0.26970954356846477, rel=1e-12)
        assert oracle.lower[0] == pytest.approx(0.0024896265560165973, rel=1e-12)

    def test_example1_upper_ranking_permutation(self):
        oracle = analytic_anova(make_example1())
        np.testing.assert_array_equal(rank(oracle.upper),
                                      [10, 9, 8, 7, 6, 5, 4, 2, 1, 3])

    def test_example4_reference_values(self):
        oracle = analytic_anova(make_example4())
        assert oracle.sigma2 == pytest.approx(EX4_SIGMA2, rel=1e-12)
        np.testing.assert_allclose(oracle.upper[:2], 0.289, atol=5e-4)
        np.testing.assert_allclose(oracle.upper[2:], 0.237, atol=5e-4)

    def test_linear_shares(self):
        oracle = analytic_anova(make_linear([1.0, 2.0]))
        np.testing.assert_allclose(oracle.upper, [0.2, 0.8])
        np.testing.assert_allclose(oracle.lower, [0.2, 0.8])

    def test_quadratic_closed_form(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0]])
        oracle = analytic_anova(make_quadratic_normal(a, [0.0, 1.0]))
        assert oracle.sigma2 == pytest.approx(3.0)
        np.testing.assert_allclose(oracle.upper, [2.0 / 3.0, 1.0 / 3.0])

    def test_unsupported_returns_none(self):
        assert analytic_anova(make_example2()) is None

    @pytest.mark.parametrize("factory", [
        make_example1, make_example4, lambda: make_linear([1.0, 2.0, 3.0]),
        lambda: make_quadratic_normal([[1.0, 0.5], [0.5, -1.0]], [0.2, 0.7])])
    def test_component_variances_consistent(self, factory):
        model = factory()
        oracle = analytic_anova(model)
        total = sum(oracle.component_variances.values())
        assert total == pytest.approx(oracle.sigma2, rel=1e-12)
        assert np.all(oracle.lower <= oracle.upper + 1e-15)
        assert oracle.lower.sum() <= 1.0 + 1e-12

    @pytest.mark.parametrize("factory", [
        make_example1, make_example4, lambda: make_linear([1.0, 2.0, 3.0]),
        lambda: make_quadratic_normal([[1.0, 0.5], [0.5, -1.0]], [0.2, 0.7])])
    def test_oracle_variance_matches_monte_carlo(self, factory):
        model = factory()
        oracle = analytic_anova(model)
        n = 1_000_000
        y = model.evaluate(sample_inputs(model, n, RngStream(17)))
        var_hat = np.var(y, ddof=1)
        centered = y - y.mean()
        se = np.sqrt((np.mean(centered**4) - var_hat**2) / n)
        assert abs(var_hat - oracle.sigma2) < 3.0 * se

    def test_quadratic_upper_matches_pick_freeze(self):
        a = np.array([[1.0, 0.8, 0.0],
                      [0.8, -0.5, 0.3],
                      [0.0, 0.3, 2.0]])
        b = np.array([0.5, -1.0, 0.25])
        model = make_quadratic_normal(a, b)
        oracle = analytic_anova(model)
        est = upper_sobol(model, 100_000, RngStream(23))
        np.testing.assert_allclose(est, oracle.upper, atol=0.015)


class TestIndicatorOracle:
    def test_mean_and_variance(self):
        model = make_example2()
        y = model.evaluate(sample_inputs(model, 1_000_000, RngStream(19)))
        assert abs(y.mean() - 0.5) < 3.0 * 0.5 / 1000.0
        assert abs(y.var(ddof=1) - 0.25) < 3.0 * 0.25 / 1000.0

    def test_closed_form_matches_pick_freeze(self):
        model = make_example2()
        exact = indicator_upper_sobol(model.reference_direction)
        est = upper_sobol(model, 200_000, RngStream(29))
        np.testing.assert_allclose(est, exact, atol=0.01)

    def test_ranking_under_printed_direction(self):
        exact = indicator_upper_sobol(make_example2().reference_direction)
        np.testing.assert_array_equal(rank(exact),
                                      [2, 3, 4, 6, 10, 1, 9, 5, 7, 8])


# runs of equal laws, the long one split across blocks at n = 2,000 (8
# columns a block) and at n = 7; equal laws are distinct objects
MIXED_LAWS = (Uniform(0.0, 1.0), Uniform(0.0, 1.0),
              *(Normal(0.0, 1.0) for _ in range(9)), Normal(1.0, 2.0),
              Uniform(-1.0, 2.0))
BLOCK_SIZES = [7, 2000, _BLOCK_DRAWS, _BLOCK_DRAWS + 1]


def mixed_model(noise_scale=0.0):
    """The mixed laws under a sum, or, when noisy, under the zero map, whose
    outputs are then the noise itself (0 + 1 * eps)."""
    if noise_scale:
        return Model("zero", "zero", MIXED_LAWS, lambda z: np.zeros(len(z)),
                     noise_scale=noise_scale)
    return Model("sum", "sum", MIXED_LAWS, lambda z: z.sum(axis=1))


class TestBlockedDraws:
    """Columns drawn in blocks have the bytes of each column drawn alone."""

    @pytest.mark.parametrize("n", [1, *BLOCK_SIZES])
    def test_sample_inputs_matches_per_column_draws(self, n):
        rng = RngStream(11)
        z = sample_inputs(mixed_model(), n, rng)
        assert z.flags.c_contiguous
        for i, dist in enumerate(MIXED_LAWS):
            alone = dist.inv_cdf(rng.substream(i).uniforms(n))
            assert z[:, i].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("noise_scale", [0.0, 1.0], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("n", BLOCK_SIZES)  # a design needs n >= 2
    def test_pick_freeze_columns_match_per_column_draws(self, n, noise_scale):
        model, rng = mixed_model(noise_scale), RngStream(12)
        design = PickFreeze(model, n, rng)
        z = design.z.copy()
        for i, v, fv, clean in design.columns():
            alone = MIXED_LAWS[i].inv_cdf(rng.substream(1).substream(i).uniforms(n))
            assert v.tobytes() == alone.tobytes()
            if noise_scale:
                eps = rng.substream(2).substream(i + 1).standard_normals(n)
                assert fv.tobytes() == eps.tobytes()
                assert not clean.any()  # the noise-free part of 0 + 1 * eps
            else:
                assert clean is fv
                zi = z.copy()
                zi[:, i] = alone
                assert fv.tobytes() == model.eval_fn(zi).tobytes()
        assert design.z.tobytes() == z.tobytes()

    @pytest.mark.parametrize("n", [1, *BLOCK_SIZES])
    def test_gradient_noise_matches_per_column_draws(self, n):
        rng = RngStream(13)
        g = gradient_matrix(mixed_model(1.0), n, 0.5, rng)
        noise = rng.substream(2)
        base = noise.substream(0).standard_normals(n)
        for i in range(len(MIXED_LAWS)):
            eps = noise.substream(i + 1).standard_normals(n)
            assert g[:, i].tobytes() == ((eps - base) / 0.5).tobytes()
