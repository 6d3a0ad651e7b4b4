"""Model abstraction, built-in test functions, and their analytic ANOVA data.

A :class:`Model` couples an evaluation map with the product law of its
inputs.  Built-ins cover the benchmark families used throughout the test
suite; where the ANOVA decomposition is available in closed form it is
exposed through :func:`analytic_anova` so Monte Carlo estimators can be
checked against exact values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations, repeat
from typing import Callable

import numpy as np

from .errors import InputDomainError, ModelOutputError
from .randkit import InputDistribution, Normal, RngStream, Uniform, draw_columns

# fixed ridge direction for the discontinuous built-in (unit-normalized below)
INDICATOR_DIRECTION = (0.143, 0.708, 0.491, -0.297, -0.124,
                       0.248, 0.058, -0.032, 0.131, -0.227)


@dataclass(frozen=True)
class Model:
    """Evaluation map plus the independent marginal laws of its inputs.

    ``eval_fn`` maps an (n, d) array of input points to an (n,) array of
    outputs and must be free of internal randomness; stochastic behaviour is
    modelled by ``noise_scale`` which adds ``noise_scale * eps`` per
    evaluation with ``eps ~ N(0,1)`` drawn from a caller-provided stream.
    The input array is read-only and valid only during the call: estimators
    overwrite one column of their design in place (:meth:`evaluate_column`),
    so a model that must keep its input copies it, and one that writes into
    it raises ``ValueError``.  An ``eval_fn`` that needs a writable buffer
    even without writing (a non-const memoryview) must take ``np.array(z)``.
    """

    label: str
    family: str
    marginals: tuple[InputDistribution, ...]
    eval_fn: Callable[[np.ndarray], np.ndarray]
    noise_scale: float = 0.0
    multilinear: bool = False
    differentiable: bool = True
    output_range: tuple[float, float] | None = None
    reference_direction: np.ndarray | None = field(default=None)

    @property
    def d(self) -> int:
        return len(self.marginals)

    def evaluate(self, z, rng: RngStream | None = None, noise: np.ndarray | None = None):
        """Evaluate the model at one point (1-d input) or a batch (2-d input).

        The raw output of ``eval_fn`` must have one finite value per row;
        anything else raises :class:`ModelOutputError` before noise is added.
        For stochastic models exactly one of ``rng`` (fresh independent
        draws) or ``noise`` (caller-fixed standard normal variates, one per
        row) must be supplied.
        """
        z = np.asarray(z, dtype=np.float64)
        single = z.ndim == 1
        batch = z[None, :] if single else z.view()
        if batch.ndim != 2 or batch.shape[1] != self.d:
            raise InputDomainError(
                f"expected points of dimension {self.d}, got shape {z.shape}")
        batch.flags.writeable = False
        y = np.asarray(self.eval_fn(batch), dtype=np.float64)
        if np.may_share_memory(y, batch):
            y = y.copy()  # a view of the input would change with the design
        if y.shape != (len(batch),):
            raise ModelOutputError(
                f"model {self.label!r} returned output of shape {y.shape}; "
                f"expected ({len(batch)},)")
        finite = np.isfinite(y)
        if not finite.all():
            bad = np.flatnonzero(~finite)
            raise ModelOutputError(
                f"model {self.label!r} returned {len(bad)} non-finite value(s) "
                f"in {len(batch)} rows, first at row {bad[0]}")
        if self.noise_scale > 0.0:
            if noise is None:
                if rng is None:
                    raise InputDomainError(
                        "stochastic model requires an rng stream or explicit noise")
                noise = rng.standard_normals(len(batch))
            y = y + self.noise_scale * np.asarray(noise, dtype=np.float64)
        return float(y[0]) if single else y

    def evaluate_column(self, z: np.ndarray, i: int, column, rng: RngStream | None = None,
                        noise: np.ndarray | None = None) -> np.ndarray:
        """:meth:`evaluate` at ``z`` with column i set to ``column`` in place,
        not in a copy; column i is restored before this returns or raises."""
        kept = z[:, i].copy()
        z[:, i] = column
        try:
            return self.evaluate(z, rng=rng, noise=noise)
        finally:
            z[:, i] = kept


def sample_inputs(model: Model, n: int, rng: RngStream) -> np.ndarray:
    """Draw a C-ordered (n, d) matrix of input points, column i from
    substream i.

    Consecutive inputs with one marginal law are drawn in blocks
    (:func:`~sensyn.randkit.draw_columns`): each substream draws its own
    uniforms, and a block of up to 16,384 draws passes through one inverse
    CDF.  The stream layout and every byte are those of drawing each column
    on its own.
    """
    if n < 1:
        raise InputDomainError("sample size must be at least 1")
    z = np.empty((n, model.d))
    streams = [rng.substream(i) for i in range(model.d)]
    for i, x in enumerate(draw_columns(model.marginals, streams, n)):
        z[:, i] = x
    return z


def noise_columns(model: Model, n: int, rng: RngStream):
    """Per input i, the n noise variates of the evaluation that changes
    column i, on child i + 1 of ``rng`` (child 0 is the base's), drawn in
    blocks as :func:`sample_inputs` draws its columns; for a noise-free
    model, None per input."""
    if not model.noise_scale > 0.0:
        return repeat(None, model.d)
    return draw_columns(None, [rng.substream(i + 1) for i in range(model.d)], n)


@dataclass(frozen=True)
class AnalyticAnova:
    """Closed-form variance decomposition of a built-in model.

    ``component_variances`` maps 0-based index subsets to their component
    variance; the subset variances sum to ``sigma2``.
    """

    sigma2: float
    lower: np.ndarray
    upper: np.ndarray
    component_variances: dict[tuple[int, ...], float]


def _anova_from_components(d: int, comps: dict[tuple[int, ...], float]) -> AnalyticAnova:
    sigma2 = sum(comps.values())
    lower = np.zeros(d)
    upper = np.zeros(d)
    for subset, var in comps.items():
        for i in subset:
            upper[i] += var
            if len(subset) == 1:
                lower[i] += var
    return AnalyticAnova(sigma2, lower / sigma2, upper / sigma2, dict(comps))


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _finite(name: str, value) -> np.ndarray:
    """``value`` as a float array, or an error naming the parameter if any
    entry is NaN or infinite."""
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputDomainError(f"model parameter {name!r} must be finite")
    return arr


def make_example1(noise_scale: float = 0.0) -> Model:
    """Ten uniform inputs on (-0.5, 0.5): an increasing linear part plus the
    bilinear interactions 10*(z1*z2 - z9*z10), optionally with additive
    evaluation noise."""
    noise_scale = float(_finite("noise_scale", noise_scale))
    if noise_scale < 0.0:
        raise InputDomainError("noise scale must be nonnegative")
    coeff = np.arange(1.0, 11.0)

    def f(z):
        return z @ coeff + 10.0 * (z[:, 0] * z[:, 1] - z[:, 8] * z[:, 9])

    return Model(
        label=f"example1(k={noise_scale:g})",
        family="example1",
        marginals=tuple(Uniform(-0.5, 0.5) for _ in range(10)),
        eval_fn=f,
        noise_scale=noise_scale,
        multilinear=True,
    )


def make_example2(direction=None) -> Model:
    """Indicator of a half-space through the origin under standard normal
    inputs; the ridge direction is stored unit-normalized."""
    if direction is None:
        theta = np.asarray(INDICATOR_DIRECTION, dtype=np.float64)
        theta = theta / np.linalg.norm(theta)
    else:
        theta = _finite("direction", direction)
        norm = np.linalg.norm(theta)
        if norm == 0.0:
            raise InputDomainError("ridge direction must be nonzero")
        if abs(norm - 1.0) > 1e-12:
            warnings.warn("ridge direction was not unit length; normalizing",
                          stacklevel=2)
        theta = theta / norm
    theta.setflags(write=False)

    def f(z):
        return (z @ theta > 0.0).astype(np.float64)

    return Model(
        label="example2",
        family="example2",
        marginals=tuple(Normal(0.0, 1.0) for _ in range(len(theta))),
        eval_fn=f,
        differentiable=False,
        output_range=(0.0, 1.0),
        reference_direction=theta,
    )


def make_example4(c=(1.0, 1.0, 1.0, 1.0), c12: float = 50.0) -> Model:
    """Four uniform(0,1) inputs: centered linear terms plus the strongly
    nonlinear interaction c12*(x1-1/2)*(x2-1/2)**5.

    The fifth power is written as products, not ``** 5``: numpy's ``pow``
    has no fast path for a negative base, and its SIMD kernels round
    differently at different CPU dispatch levels.  Each IEEE product is
    correctly rounded, so the term has the same bits on every CPU and is
    exactly odd in x2-1/2.
    """
    c = _finite("c", c)
    if c.shape != (4,):
        raise InputDomainError("expected exactly four linear coefficients")
    c12 = float(_finite("c12", c12))

    def f(x):
        y = x - 0.5
        y2 = y[:, 1]
        sq = y2 * y2
        return y @ c + c12 * y[:, 0] * (sq * sq * y2)

    return Model(
        label="example4",
        family="example4",
        marginals=tuple(Uniform(0.0, 1.0) for _ in range(4)),
        eval_fn=f,
    )


def make_linear(coefficients, intervals=None) -> Model:
    """Linear map sum(c_i * z_i) with uniform interval marginals
    (default (0,1) for every input)."""
    c = _finite("coefficients", coefficients)
    if c.ndim != 1 or len(c) == 0:
        raise InputDomainError("coefficients must be a nonempty vector")
    if intervals is None:
        marginals = tuple(Uniform(0.0, 1.0) for _ in c)
    else:
        marginals = tuple(Uniform(float(a), float(b))
                          for a, b in _finite("intervals", intervals))
        if len(marginals) != len(c):
            raise InputDomainError("one interval per coefficient required")

    def f(z):
        return z @ c

    return Model(
        label=f"linear(d={len(c)})",
        family="linear",
        marginals=marginals,
        eval_fn=f,
        multilinear=True,
    )


def make_quadratic_normal(a_matrix, b) -> Model:
    """Quadratic form 0.5*z'Az + b'z under standard normal inputs; ``A``
    must be symmetric."""
    a_matrix = _finite("A", a_matrix)
    b = _finite("b", b)
    if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
        raise InputDomainError("A must be square")
    if not np.allclose(a_matrix, a_matrix.T, rtol=0.0, atol=0.0):
        raise InputDomainError("A must be symmetric")
    if b.shape != (a_matrix.shape[0],):
        raise InputDomainError("b must match the dimension of A")

    def f(z):
        return 0.5 * np.sum((z @ a_matrix) * z, axis=1) + z @ b

    return Model(
        label=f"quadratic_normal(d={len(b)})",
        family="quadratic_normal",
        marginals=tuple(Normal(0.0, 1.0) for _ in b),
        eval_fn=f,
        reference_direction=None,
    )


_BUILTIN_FACTORIES = {
    "example1": make_example1,
    "example2": make_example2,
    "example4": make_example4,
    "linear": make_linear,
    "quadratic_normal": make_quadratic_normal,
    "quadratic": make_quadratic_normal,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(set(_BUILTIN_FACTORIES) - {"quadratic"}))


def make_builtin(name: str, **params) -> Model:
    """Construct a built-in model by name (see :func:`builtin_names`)."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise InputDomainError(f"unknown model {name!r}; choose from {builtin_names()}")
    return factory(**params)


# ---------------------------------------------------------------------------
# Analytic ANOVA oracles
# ---------------------------------------------------------------------------

_UNIFORM_CENTERED_MOMENTS = {2: 1.0 / 12.0, 10: (0.5**10) / 11.0}


def analytic_anova(model: Model) -> AnalyticAnova | None:
    """Closed-form ANOVA data for supported built-ins, ``None`` otherwise.

    The noise hook is excluded: for a stochastic model the oracle describes
    the noiseless part.
    """
    if model.family == "example1":
        comps = {(i,): (i + 1) ** 2 / 12.0 for i in range(10)}
        comps[(0, 1)] = 100.0 / 144.0
        comps[(8, 9)] = 100.0 / 144.0
        return _anova_from_components(10, comps)

    if model.family == "example4":
        # recover coefficients by probing the evaluation map
        base = np.full((1, 4), 0.5)
        c = np.empty(4)
        for i in range(4):
            pt = base.copy()
            pt[0, i] = 1.0
            c[i] = model.eval_fn(pt)[0] * 2.0
        pt = np.array([[1.0, 1.0, 0.5, 0.5]])
        c12 = (model.eval_fn(pt)[0] - 0.5 * (c[0] + c[1])) / (0.5**6)
        m2 = _UNIFORM_CENTERED_MOMENTS[2]
        m10 = _UNIFORM_CENTERED_MOMENTS[10]
        comps = {(i,): c[i] ** 2 * m2 for i in range(4)}
        comps[(0, 1)] = c12**2 * m2 * m10
        return _anova_from_components(4, comps)

    if model.family == "linear":
        c = model.eval_fn(np.eye(model.d)) - model.eval_fn(np.zeros((1, model.d)))
        widths = np.array([dist.scale for dist in model.marginals])
        comps = {(i,): (c[i] * widths[i]) ** 2 / 12.0 for i in range(model.d)}
        return _anova_from_components(model.d, comps)

    if model.family == "quadratic_normal":
        d = model.d
        # recover b and A from the quadratic evaluation map
        b = (model.eval_fn(np.eye(d)) - model.eval_fn(-np.eye(d))) / 2.0
        a = np.empty((d, d))
        for i in range(d):
            e = np.zeros((1, d))
            e[0, i] = 1.0
            a[i, i] = model.eval_fn(e)[0] + model.eval_fn(-e)[0]
        for i, j in combinations(range(d), 2):
            e = np.zeros((1, d))
            e[0, i] = 1.0
            e[0, j] = 1.0
            fij = model.eval_fn(e)[0]
            a[i, j] = fij - 0.5 * (a[i, i] + a[j, j]) - b[i] - b[j]
            a[j, i] = a[i, j]
        comps = {(i,): b[i] ** 2 + 0.5 * a[i, i] ** 2 for i in range(d)}
        for i, j in combinations(range(d), 2):
            comps[(i, j)] = a[i, j] ** 2
        return _anova_from_components(d, comps)

    return None


def indicator_upper_sobol(direction) -> np.ndarray:
    """Exact upper Sobol' indices of the half-space indicator.

    Replacing one coordinate of a unit ridge direction turns the pair of
    indicator arguments into bivariate normals with correlation
    ``1 - theta_i**2``; the orthant probability of a sign flip then gives
    ``S_i = (2/pi) * arccos(1 - theta_i**2)`` with total variance 1/4.
    """
    theta = np.asarray(direction, dtype=np.float64)
    theta = theta / np.linalg.norm(theta)
    return (2.0 / math.pi) * np.arccos(1.0 - theta**2)
