"""Finite-difference gradients and derivative-based measures."""

import numpy as np
import pytest

from sensyn import (InputDomainError, Model, Normal, RngStream, Uniform,
                    cheeger_constant, dgsm, estimate_variance, gradient_matrix,
                    make_example1, make_example2, make_example4, make_linear,
                    make_quadratic_normal, upper_sobol)
from sensyn.dgsm import DesignGradients
from sensyn.variance import PickFreeze, upper_from_design


class TestGradientMatrix:
    def test_linear_exact(self):
        g = gradient_matrix(make_linear([1.0, 2.0, 3.0]), 200, 1e-3, RngStream(4))
        np.testing.assert_allclose(g, np.tile([1.0, 2.0, 3.0], (200, 1)), atol=1e-10)

    def test_forward_difference_bias(self):
        # f = z**2: slope (f(z+h)-f(z))/h = 2z + h at every sampled base point
        batches = []

        def square(x):
            batches.append(x.copy())
            return x[:, 0] ** 2

        model = Model(label="square", family="custom", marginals=(Normal(0.0, 1.0),),
                      eval_fn=square)
        g = gradient_matrix(model, 500, 1e-3, RngStream(5))
        np.testing.assert_allclose(g[:, 0], 2.0 * batches[0][:, 0] + 1e-3, atol=1e-9)

    def test_indicator_spikes_inside_stencil(self):
        # a forward step flips the indicator only where the ridge argument
        # crosses zero inside the stencil, towards the sign of theta_i
        model = make_example2()
        theta = model.reference_direction
        # about 95 spikes at n = 100,000, with a spread of about 18 over
        # seeds (steps that flip several inputs of one row come together):
        # 10 is 4.7 spreads, and 8.7 Poisson SDs, below the mean
        g = gradient_matrix(model, 100_000, 1e-3, RngStream(6))
        spike = np.sign(theta) / 1e-3
        assert np.all((g == 0.0) | (g == spike))
        assert np.count_nonzero(g) > 10

    def test_increment_domain(self):
        for h in (0.0, -1e-3):
            with pytest.raises(InputDomainError):
                gradient_matrix(make_linear([1.0]), 10, h, RngStream(0))


def example1_gradients(z: np.ndarray) -> np.ndarray:
    """Closed-form partial derivatives of example1 at the rows of z."""
    g = np.tile(np.arange(1.0, 11.0), (len(z), 1))
    g[:, 0] += 10.0 * z[:, 1]
    g[:, 1] += 10.0 * z[:, 0]
    g[:, 8] -= 10.0 * z[:, 9]
    g[:, 9] -= 10.0 * z[:, 8]
    return g


class TestDesignGradients:
    @pytest.mark.parametrize("h", [1e-3, 0.2])
    def test_example1_exact_at_the_base_points(self, h, monkeypatch):
        model, n = make_example1(), 4_000
        design = PickFreeze(model, n, RngStream(3))
        grads = DesignGradients(model, design.z, design.fz, h)
        steps = []
        rows = []

        def counted(self, z, rng=None, noise=None, _fn=Model.evaluate):
            rows.append(len(z))
            return _fn(self, z, rng=rng, noise=noise)
        monkeypatch.setattr(Model, "evaluate", counted)
        upper_from_design(design, on_column=[
            grads, lambda i, v, fv: steps.append(v - design.z[:, i])])
        np.testing.assert_allclose(grads.matrix(), example1_gradients(design.z),
                                   rtol=0.0, atol=1e-9)
        # each freeze column, then, if any of its pairs is closer than h, one
        # call holding one row per such pair
        short = [int(np.count_nonzero(np.abs(s) < h)) for s in steps]
        expected = []
        for k in short:
            expected += [n, k] if k else [n]
        assert rows == expected
        # P(|v - z| < h) = 2h - h**2 for two unit-width uniforms
        assert sum(short) / (n * model.d) == pytest.approx(2 * h - h * h, abs=0.01)

    def test_coincident_pair_takes_the_forward_difference(self):
        model = make_linear([3.0, -1.0])
        z = np.array([[0.2, 0.7], [0.5, 0.1]])
        grads = DesignGradients(model, z, model.evaluate(z), 1e-3)
        for i in range(2):
            grads(i, z[:, i].copy(), model.evaluate(z))
        np.testing.assert_allclose(grads.matrix(), [[3.0, -1.0]] * 2, rtol=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_quotient_names_the_input(self):
        model = Model(label="huge", family="custom", multilinear=True,
                      marginals=(Uniform(0.0, 1.0),) * 2,
                      eval_fn=lambda z: 1.7e308 * (2.0 * z[:, 1] - 1.0))
        z = np.array([[0.5, 0.0], [0.5, 0.1]])
        grads = DesignGradients(model, z, model.evaluate(z), 1e-3)
        for i in range(2):
            v = 1.0 - z[:, i]
            grads(i, v, model.evaluate_column(z, i, v))
        with pytest.raises(InputDomainError, match="input 2"):
            grads.matrix()

    @pytest.mark.parametrize("model", [make_example1(noise_scale=1.0), make_example4()],
                             ids=["noisy", "not-multilinear"])
    def test_needs_a_noise_free_multilinear_model(self, model):
        z = np.full((2, model.d), 0.5)
        with pytest.raises(InputDomainError, match="multilinear"):
            DesignGradients(model, z, np.zeros(2), 1e-3)


class TestDgsm:
    def test_linear_exact(self):
        v = dgsm(make_linear([1.0, 2.0, 3.0]), 200, 1e-3, RngStream(0))
        np.testing.assert_allclose(v, [1.0, 4.0, 9.0], rtol=1e-10)

    def test_example1_first_input(self):
        # d f / d z1 = 1 + 10 z2, so the measure is 1 + 100/12
        v = dgsm(make_example1(), 100_000, 1e-3, RngStream(1))
        assert v[0] == pytest.approx(1.0 + 100.0 / 12.0, rel=0.02)

    def test_noise_inflation(self):
        # independent noise in the stencil adds ~2 k^2 / h^2 to every input
        model = make_example1(noise_scale=1.0)
        v = dgsm(model, 2_000, 1e-3, RngStream(2))
        inflation = 2.0 * 1.0 / 1e-3**2
        np.testing.assert_allclose(v, inflation, rtol=0.33)
        spread = (v.max() - v.min()) / v.mean()
        assert spread < 0.5  # all inputs look alike under heavy noise

    def test_shared_gradient_sample_reuse(self):
        g = gradient_matrix(make_example4(), 500, 1e-3, RngStream(3))
        assert g.shape == (500, 4)


class TestDgsmBoundsDirect:
    def test_linear_identity(self):
        # at n = 250,000 the SE of the third input's difference is about
        # 0.0025, so the band is 4 SE wide
        model = make_linear([1.0, 2.0, 3.0])
        n = 250_000
        sbar = upper_sobol(model, n, RngStream(4))
        v = dgsm(model, n, 1e-3, RngStream(5))
        sigma2 = estimate_variance(model, n, RngStream(6))
        np.testing.assert_allclose(sbar, v / (12.0 * sigma2), atol=0.01)

    def test_pi_squared_bound_example4(self):
        model = make_example4()
        n = 20_000
        sbar = upper_sobol(model, n, RngStream(7))
        v = dgsm(model, n, 1e-3, RngStream(8))
        sigma2 = estimate_variance(model, n, RngStream(9))
        assert np.all(sbar <= v / (np.pi**2 * sigma2) + 0.01)

    def test_distribution_constant_bound_quadratic(self):
        a = np.array([[1.0, 0.3], [0.3, -0.7]])
        model = make_quadratic_normal(a, [0.5, 1.0])
        n = 20_000
        sbar = upper_sobol(model, n, RngStream(10))
        v = dgsm(model, n, 1e-3, RngStream(11))
        sigma2 = estimate_variance(model, n, RngStream(12))
        dconst = np.array([cheeger_constant(m) for m in model.marginals])
        np.testing.assert_allclose(dconst, 2.0 * np.pi)
        assert np.all(sbar <= dconst * v / sigma2 + 0.01)
