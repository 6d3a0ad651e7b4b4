"""Evaluation counts of the estimators, pinned with the benchmark's counter.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
The per-estimator costs are the ones the docstrings document; the CLI totals
are the reference counts later changes are compared against.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sensyn import cli  # noqa: E402
from sensyn.models import make_builtin  # noqa: E402
from sensyn.randkit import RngStream  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

N = 500


def _rows_and_calls(name, *args, **kwargs) -> tuple[int, int]:
    """Rows and calls charged to the single estimator span that the traced
    function ``module.function`` opens."""
    module, function = name.split(".")
    with Tracer() as tracer:
        getattr(importlib.import_module(f"sensyn.{module}"), function)(*args, **kwargs)
    charged = {k: v for k, v in tracer.rows_by_estimator().items() if k >= 0}
    assert len(charged) == 1
    rows, calls = charged.popitem()[1]
    return rows, calls


@pytest.fixture(params=["example1", "example4"])
def model(request):
    return make_builtin(request.param)


def test_variance_costs_n(model):
    assert _rows_and_calls("variance.estimate_variance", model, N, RngStream(1)) == (N, 1)


def test_upper_sobol_costs_n_d_plus_1(model):
    rows, calls = _rows_and_calls("variance.upper_sobol", model, N, RngStream(2))
    assert (rows, calls) == (N * (model.d + 1), model.d + 1)


def test_lower_sobol_costs_n_2d_plus_2(model):
    rows, calls = _rows_and_calls("variance.lower_sobol", model, N, RngStream(3))
    assert (rows, calls) == (N * (2 * model.d + 2), 2 * model.d + 2)


def test_gradients_cost_n_d_plus_1(model):
    rows, calls = _rows_and_calls("dgsm.gradient_matrix", model, N, 1e-3, RngStream(4))
    assert (rows, calls) == (N * (model.d + 1), model.d + 1)


@pytest.mark.parametrize("m2", [1, 3])
def test_gas_costs_m1_times_1_plus_m2_d_without_redraws(model, m2):
    rows, calls = _rows_and_calls("subspace.estimate_c_gas", model, N, m2,
                                  RngStream(5), slope_window=0.0)
    assert (rows, calls) == (N * (1 + m2 * model.d), 1 + m2 * model.d)


@pytest.mark.parametrize("m2", [1, 3])
def test_gas_redraw_rows_come_on_top_of_the_design(model, m2):
    with Tracer() as tracer:
        importlib.import_module("sensyn.subspace").estimate_c_gas(
            model, N, m2, RngStream(6))
    metrics = layer_metrics(tracer, 0)
    design = N * m2 * model.d
    redraw = metrics["subspace.gas.rows"] - N * (1 + m2 * model.d)
    assert 0 < redraw < design
    # one extra call per (freeze vector, input) that needed a redraw
    assert metrics["models.eval.calls"] <= 1 + 2 * m2 * model.d
    assert metrics["subspace.gas.first_draw_ratio"] == pytest.approx(1 - redraw / design)


def _cli_metrics(tmp_path, argv) -> dict:
    here = os.getcwd()
    os.chdir(tmp_path)
    try:
        with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        os.chdir(here)
    return layer_metrics(tracer, 0)


def test_analyze_example4_reference_total(tmp_path):
    metrics = _cli_metrics(tmp_path, ["analyze", "--model", "example4", "--n", "10000"])
    assert metrics["models.eval.rows"] == 283_023


def test_bounds_example4_reference_total(tmp_path):
    metrics = _cli_metrics(tmp_path, ["bounds", "--model", "example4", "--n", "10000"])
    assert (metrics["models.eval.rows"], metrics["models.eval.calls"]) == (376_147, 410)


def test_rows_partition_by_estimator(tmp_path):
    metrics = _cli_metrics(tmp_path, ["bounds", "--model", "example4", "--n", "2000"])
    groups = ("variance.rows", "dgsm.rows", "subspace.gas.rows", "bounds.rows")
    assert sum(metrics[g] for g in groups) == metrics["models.eval.rows"]
    # the bound checks evaluate only their own sigma2 batches: 10 batches of
    # n/10 rows per check, for the two uniform checks and the DGSM checks
    assert metrics["bounds.rows"] == 3 * 2000


def test_every_binding_is_traced_and_restored():
    import sensyn
    from sensyn import bounds, linalg, report, subspace, variance

    bindings = [(m, "upper_sobol") for m in (variance, bounds, report, cli, sensyn)]
    bindings += [(m, "sym_eig") for m in (linalg, subspace, bounds, report, sensyn)]
    originals = [getattr(m, attr) for m, attr in bindings]
    with Tracer():
        for (m, attr), original in zip(bindings, originals):
            assert getattr(m, attr).__wrapped__ is original, (m.__name__, attr)
    assert [getattr(m, attr) for m, attr in bindings] == originals
