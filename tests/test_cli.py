"""Command-line interface: outputs, exit codes, reproducibility."""

import ast
import contextlib
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensyn import Model, Uniform, _front, cli, subspace
from sensyn.cli import main
from sensyn.models import indicator_upper_sobol, make_builtin
from sensyn.report import build_report, rank
from sensyn.svgplot import bars_chart, eigvec_chart, spectrum_chart


def _load_bench_workloads():
    """``bench/workloads.py``, loaded by path (``bench`` is no package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up there
    return module


workloads = _load_bench_workloads()

_theta = np.random.default_rng(3).normal(size=100)
THETA_100 = (_theta / np.linalg.norm(_theta)).tolist()  # a d = 100 ridge direction


@pytest.fixture()
def model_rows(monkeypatch):
    """The row count of every ``Model.evaluate`` call the test makes."""
    rows = []
    evaluate = Model.evaluate

    def counted(self, z, rng=None, noise=None):
        rows.append(len(np.atleast_2d(z)))
        return evaluate(self, z, rng=rng, noise=noise)

    monkeypatch.setattr(Model, "evaluate", counted)
    return rows


class TestAnalyze:
    def test_example4_json(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["analyze", "--model", "example4", "--methods", "all",
                     "--n", "10000", "--seed", "7", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        upper = np.array(data["scores"]["sobol_upper"])
        np.testing.assert_allclose(upper[:2], 0.289, atol=0.02)
        np.testing.assert_allclose(upper[2:], 0.237, atol=0.02)

    @pytest.mark.parametrize("argv, window", [
        (["--model", "example4"], 0.0),
        (["--model", "example1", "--noise", "1", "--methods", "gas"], 0.0),
        (["--model", "example2", "--methods", "sobol,gas"], 0.35),
        (["--model", "example4", "--methods", "sobol,dgsm"], None)],
        ids=["example4", "example1-noisy", "example2", "no-gas"])
    def test_meta_records_the_default_window(self, argv, window, tmp_path):
        # the window of the model's own default, the bytes of that window given
        blobs = []
        for extra in ([], [] if window is None else ["--slope-window", str(window)]):
            out = tmp_path / f"r{len(blobs)}.json"
            assert main(["analyze", *argv, "--n", "500", "--seed", "3", *extra,
                         "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        meta = json.loads(blobs[0])["meta"]
        assert (meta["schema_version"], meta["slope_window"]) == (2, window)

    def test_strict_threshold_rule(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["analyze", "--model", "example1", "--noise", "0",
                     "--methods", "gas", "--m", "auto", "--n", "4000",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        m = data["spectra"]["m_gas"]
        cums = data["spectra"]["gas_cumulative"]
        assert cums[m - 1] > 0.9
        assert all(c <= 0.9 for c in cums[:m - 1])

    def test_example2_alignment_field(self, tmp_path):
        out = tmp_path / "e2.json"
        code = main(["analyze", "--model", "example2", "--methods", "gas",
                     "--n", "10000", "--seed", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["spectra"]["u1_alignment"] >= 0.99

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["analyze", "--model", "example4", "--methods", "sobol",
                     "--n", "500", "--seed", "1", "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("input_index,sigma2_share")
        assert len(lines) == 5

    def test_quadratic_model_flags(self, tmp_path):
        out = tmp_path / "q.json"
        code = main(["analyze", "--model", "quadratic", "--A", "diag:2,0",
                     "--b", "0,1", "--methods", "gas", "--n", "2000",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["meta"]["model"] == "quadratic_normal(d=2)"

    @pytest.mark.parametrize("methods, kinds", [
        ("all", ("as", "gas")),  # the design's gradients
        ("dgsm,as", ("as",)),  # forward differences
    ])
    def test_ignored_input_scores_exactly_zero(self, methods, kinds, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--model", "linear", "--c", "1,2,0", "--methods", methods,
                     "--n", "2000", "--seed", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        fields = [data["scores"]["dgsm_raw"], data["scores"]["dgsm_normalized"]]
        if methods == "all":
            fields += [data["scores"]["sobol_lower"], data["scores"]["sobol_upper"]]
        for kind in kinds:
            fields.append(data["spectra"][f"{kind}_first_eigenvector"])
            fields += [data["scores"][f"{kind}_scores_{at}{form}"]
                       for at in ("m", "full") for form in ("", "_normalized")]
        assert [field[2] for field in fields] == [0.0] * len(fields)


class TestExitCodes:
    def test_unknown_model_is_usage_error(self, capsys):
        assert main(["analyze", "--model", "nosuch", "--out", "x.json"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_method_is_usage_error(self):
        assert main(["analyze", "--model", "example4", "--methods", "bogus",
                     "--out", "x.json"]) == 2

    @pytest.mark.parametrize("budget, message", [
        (["--n", "100", "--m1", "60", "--m2", "2"], "--n 100 must equal --m1 60 times --m2 2"),
        (["--n", "100", "--m1", "50"], "--n 100 must equal --m1 50 times --m2 1"),
        (["--n", "1000", "--m2", "3"],
         "--n 1000 must equal --m1 times --m2, and --m2 3 does not divide it")],
        ids=["m1-and-m2", "m1-alone", "m2-alone"])
    def test_inconsistent_budget_is_usage_error(self, budget, message, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["analyze", "--model", "example4", *budget, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_omitted_m1_is_n_over_m2(self, tmp_path):
        # the slope matrix reads m1*m2 = n quotients, and the report says so
        outs = [tmp_path / "n.json", tmp_path / "m1.json"]
        for budget, out in zip((["--n", "1000"], ["--m1", "250"]), outs):
            assert main(["analyze", "--model", "example4", "--methods", "gas", *budget,
                         "--m2", "4", "--out", str(out)]) == 0
        meta = json.loads(outs[0].read_text())["meta"]
        assert (meta["n"], meta["m1"], meta["m2"]) == (1000, 250, 4)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        # constant model: zero variance kills the Sobol' ratio
        code = main(["analyze", "--model", "linear", "--c", "0,0",
                     "--methods", "sobol", "--n", "200", "--seed", "1",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, option", [
        (["analyze", "--model", "example2", "--methods", "sobol", "--n", "2"], "--n"),
        (["bounds", "--model", "example2", "--n", "20"], "--n"),
        (["convergence", "--model", "example2", "--methods", "sobol", "--sizes", "2,10",
          "--seeds", "2"], "--sizes")], ids=["analyze", "bounds", "convergence"])
    def test_equal_base_outputs_name_the_sample(self, argv, option, tmp_path, capsys):
        # example2 is not constant, but two base points can share its output;
        # the remedy names the option the command takes
        out = tmp_path / "x.json"
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "all 2 base outputs are equal" in err
        assert "constant or the sample is too small" in err
        assert err.rstrip().endswith(f"use a larger sample ({option})")
        assert not out.exists()

    @pytest.mark.parametrize("eval_fn, message", [
        (lambda x: np.where(x[:, 0] < 0.01, np.nan, x.sum(axis=1)),
         "non-finite value"),
        (lambda x: 2.0 * x, "returned output of shape"),
    ])
    def test_bad_model_output_is_exit_one(self, eval_fn, message, tmp_path,
                                          capsys, monkeypatch):
        bad = Model(label="bad", family="custom",
                    marginals=(Uniform(0.0, 1.0),) * 3, eval_fn=eval_fn)
        monkeypatch.setattr(cli, "make_builtin", lambda name, **params: bad)
        for methods in ("sobol", "all"):
            code = main(["analyze", "--model", "example4", "--methods", methods,
                         "--n", "2000", "--out", str(tmp_path / "x.json")])
            assert code == 1
            err = capsys.readouterr().err
            assert "model 'bad'" in err and message in err

    def test_degenerate_spectrum_names_method(self, tmp_path, capsys):
        # with h = 1e-12 every forward difference of the indicator is zero:
        # one straddles the jump only where |theta . z| < 1e-12
        code = main(["analyze", "--model", "example2", "--n", "100", "--seed", "1",
                     "--h", "1e-12", "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "AS matrix of model 'example2' is all zero at n=100" in err
        assert "drop the 'as' method" in err

    @pytest.mark.parametrize("params, name", [
        (["--model", "example1", "--noise", "nan"], "noise_scale"),
        (["--model", "example2", "--theta", "1,inf,0"], "direction"),
        (["--model", "example4", "--c12", "1e309"], "c12"),
        (["--model", "example4", "--c", "1,1,nan,1"], "c"),
        (["--model", "linear", "--c", "1,nan"], "coefficients"),
        (["--model", "quadratic", "--A", "diag:1,nan", "--b", "0,0"], "A"),
        (["--model", "quadratic", "--A", "diag:1,1", "--b", "0,-inf"], "b"),
    ])
    def test_non_finite_model_parameter_is_usage_error(self, params, name,
                                                       tmp_path, capsys):
        code = main(["analyze", *params, "--n", "200",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error" in err and f"parameter '{name}' must be finite" in err
        assert not (tmp_path / "x.json").exists()

    def test_empty_sizes_is_usage_error(self, tmp_path):
        code = main(["convergence", "--model", "linear", "--c", "1,2",
                     "--sizes", "", "--seeds", "2",
                     "--out", str(tmp_path / "t.json")])
        assert code == 2

    @pytest.mark.parametrize("argv, fmt", [
        (["bounds", "--model", "example4", "--n", "2000"], "csv"),
        (["bounds", "--model", "example4", "--n", "2000"], "svg"),
        (["convergence", "--model", "example4", "--sizes", "10,100", "--seeds", "2"], "csv"),
        (["convergence", "--model", "example4", "--sizes", "10,100", "--seeds", "2"], "svg"),
        (["analyze", "--model", "example4", "--n", "2000"], "svg"),
    ], ids=["bounds-csv", "bounds-svg", "convergence-csv", "convergence-svg",
            "analyze-svg"])
    def test_unwritten_format_is_usage_error(self, argv, fmt, tmp_path):
        out = tmp_path / f"x.{fmt}"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--format", fmt, "--out", str(out)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "example4", "--theta", "1,2"],
        ["analyze", "--model", "example4", "--noise", "1"],
        ["bounds", "--model", "example2", "--noise", "0"],
        ["analyze", "--model", "example1", "--c12", "3"],
        ["convergence", "--model", "linear", "--c", "1,2", "--c12", "3"],
        ["analyze", "--model", "example4", "--A", "diag:1,1"],
        ["analyze", "--model", "linear", "--c", "1,2", "--b", "0,1"],
        ["analyze", "--model", "quadratic", "--A", "diag:1,1", "--b", "0,1",
         "--c", "1,2"],
    ], ids=["theta-example4", "noise-example4", "noise-example2",
            "c12-example1", "c12-linear", "A-example4", "b-linear", "c-quadratic"])
    def test_model_flag_the_model_ignores_is_usage_error(self, argv, tmp_path,
                                                         capsys):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert "does not take" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["bounds", "--model", "example4", "--n", "100000", "--m", "7"],
        ["analyze", "--model", "example4", "--m", "7"],
        ["analyze", "--model", "example1", "--methods", "gas", "--m", "0"],
        ["bounds", "--model", "example2", "--n", "100000", "--epsilon", "0.7"],
        ["bounds", "--model", "example2", "--epsilon", "0"],
        ["bounds", "--model", "example4", "--n", "2000", "--slope-window", "0.95"],
        ["analyze", "--model", "example1", "--noise", "1", "--slope-window", "0.9"],
        ["convergence", "--model", "example4", "--slope-window", "-0.1"],
        ["bounds", "--model", "example4", "--slope-window", "nan"],
        ["analyze", "--model", "example4", "--n", "300000", "--h", "0"],
        ["analyze", "--model", "example4", "--methods", "dgsm", "--n", "200",
         "--h", "nan"],
        ["bounds", "--model", "example4", "--n", "2000", "--h=-0.001"],
        ["analyze", "--model", "example1", "--methods", "as", "--h", "inf"],
        ["bounds", "--model", "example4", "--n", "100000", "--threshold", "-1"],
        ["bounds", "--model", "example2", "--threshold", "1"],
        ["analyze", "--model", "example4", "--n", "300000", "--threshold", "nan"],
        ["analyze", "--model", "example1", "--methods", "sobol", "--threshold", "1.5"],
    ], ids=["bounds-m", "analyze-m", "analyze-m-zero", "bounds-epsilon",
            "bounds-epsilon-zero", "bounds-slope-window", "analyze-slope-window",
            "convergence-slope-window", "bounds-slope-window-nan", "analyze-h-zero",
            "analyze-h-nan", "bounds-h-negative", "analyze-h-inf",
            "bounds-threshold-negative", "bounds-threshold-one", "analyze-threshold-nan",
            "analyze-threshold-above-one"])
    def test_rank_and_epsilon_fail_before_sampling(self, argv, tmp_path,
                                                   model_rows, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert "must lie in" in capsys.readouterr().err
        assert model_rows == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [
        ["--sizes", "10,100", "--seeds", "-2"],
        ["--sizes", "10,100", "--seeds", "0"],
        ["--sizes", "1,100", "--seeds", "2"],
    ], ids=["negative-seeds", "zero-seeds", "size-1"])
    def test_convergence_without_cells_fails_before_sampling(
            self, extra, tmp_path, model_rows, capsys):
        assert main(["convergence", "--model", "example4", *extra,
                     "--out", str(tmp_path / "c.json")]) == 2
        assert "must be at least" in capsys.readouterr().err
        assert model_rows == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["convergence", "--model", "example4", "--methods", "dgsm"],
         "convergence needs the sobol and/or gas methods"),
        (["convergence", "--model", "example1", "--methods", "as,dgsm"],
         "convergence needs the sobol and/or gas methods"),
        (["convergence", "--model", "example4", "--sizes", "100,10"],
         "--sizes must be strictly increasing, got 100,10"),
        (["convergence", "--model", "example4", "--sizes", "10,10"],
         "--sizes must be strictly increasing, got 10,10"),
        (["analyze", "--model", "example4", "--n", "0"], "--n must be at least 1"),
        (["analyze", "--model", "example4", "--methods", "gas", "--n", "-5"],
         "--n must be at least 1"),
        (["analyze", "--model", "example4", "--n", "1"],
         "--n must be at least 2 for the sobol method, got 1"),
        (["analyze", "--model", "example1", "--methods", "sobol,gas", "--m1", "1"],
         "--n must be at least 2 for the sobol method, got 1"),
        (["bounds", "--model", "example4", "--n", "0"], "--n must be at least 1"),
        (["bounds", "--model", "example4", "--n", "5"],
         "--n must be at least 20 for bounds (10 batches of at least 2 rows), got 5"),
        (["bounds", "--model", "example4", "--n", "19"],
         "--n must be at least 20 for bounds (10 batches of at least 2 rows), got 19"),
        (["analyze", "--model", "example4", "--m1", "0"], "--m1 must be at least 1"),
        (["analyze", "--model", "example4", "--methods", "gas", "--m2", "0"],
         "--m2 must be at least 1"),
        (["analyze", "--model", "example4", "--seed", "-1"],
         "--seed must fit in an unsigned 64-bit word"),
        (["bounds", "--model", "example4", "--seed", str(2**64)],
         "--seed must fit in an unsigned 64-bit word"),
        (["convergence", "--model", "example4", "--seed", "-1"],
         "--seed must fit in an unsigned 64-bit word"),
    ], ids=["convergence-dgsm", "convergence-as-dgsm", "sizes-decreasing",
            "sizes-repeated", "analyze-n-zero", "analyze-n-negative",
            "analyze-n-1-sobol", "analyze-m1-1-sobol", "bounds-n-zero",
            "bounds-n-5", "bounds-n-19",
            "m1-zero", "m2-zero", "analyze-seed-negative", "bounds-seed-too-large",
            "convergence-seed-negative"])
    def test_value_no_estimator_takes_fails_before_sampling(
            self, argv, message, tmp_path, model_rows, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert model_rows == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, message", [
        ("abc", "SENSYN_SEED: 'abc' is not an integer"),
        ("1e3", "SENSYN_SEED: '1e3' is not an integer"),
        ("-1", "SENSYN_SEED must fit in an unsigned 64-bit word, got -1"),
        (str(2**64), f"SENSYN_SEED must fit in an unsigned 64-bit word, got {2**64}"),
    ], ids=["text", "float", "negative", "too-large"])
    def test_bad_env_seed_names_the_variable(self, value, message, tmp_path, model_rows,
                                             capsys, monkeypatch):
        # without --seed the seed comes from SENSYN_SEED, and a bad one says so
        monkeypatch.setenv("SENSYN_SEED", value)
        assert main(["analyze", "--model", "example4", "--n", "100",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert model_rows == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods", ["dgsm", "gas", "dgsm,as,gas"])
    def test_one_point_runs_without_sobol(self, methods, tmp_path):
        out = tmp_path / "x.json"
        assert main(["analyze", "--model", "example4", "--methods", methods,
                     "--n", "1", "--seed", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["meta"]["n"] == 1

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--model", "example4", "--m=x"], "--m: 'x' is not an integer"),
        (["bounds", "--model", "example4", "--m", "1.5"], "--m: '1.5' is not an integer"),
        (["convergence", "--model", "example4", "--sizes", "10,x"],
         "--sizes: 'x' is not an integer"),
        (["analyze", "--model", "quadratic", "--A=1,2;2", "--b=0,0"],
         "--A: rows of different lengths in '1,2;2'"),
        (["analyze", "--model", "quadratic", "--A=diag:1,y", "--b=0,0"],
         "--A: 'y' is not a number"),
        (["analyze", "--model", "quadratic", "--A=diag:1,1", "--b=0,z"],
         "--b: 'z' is not a number"),
        (["analyze", "--model", "example4", "--c=1,2,q,4"], "--c: 'q' is not a number"),
        (["analyze", "--model", "linear", "--c=1,,2"], "--c: '' is not a number"),
        (["analyze", "--model", "example2", "--theta=1,t"], "--theta: 't' is not a number"),
    ], ids=["m", "bounds-m", "sizes", "A-ragged", "A-diag", "b", "c-example4", "c-linear",
            "theta"])
    def test_unreadable_flag_value_names_the_flag(self, argv, message, tmp_path,
                                                 model_rows, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert model_rows == []
        assert list(tmp_path.iterdir()) == []

    def test_model_warning_is_one_note(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none reaches the caller
            code = main(["analyze", "--model", "example2", "--theta=1,2",
                         "--methods", "sobol", "--n", "200", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == (
            "note: ridge direction was not unit length; normalizing\n")
        assert out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "example4", "--sizes", "5", "--seeds", "3",
         "--epsilon", "0.3", "--n", "200"],
        ["convergence", "--model", "example4", "--sizes", "10,100", "--seeds", "2",
         "--epsilon", "0.2", "--threshold", "0.5", "--m", "2", "--h", "0.1"],
        ["bounds", "--model", "example4", "--n", "200", "--methods", "sobol",
         "--sizes", "5"],
        ["analyze", "--model", "example4", "--epsilon", "0.3"],
        ["bounds", "--model", "example4", "--m1", "10", "--m2", "1"],
        ["convergence", "--model", "example4", "--h", "0.1"],
        # not an abbreviation of --noise
        ["convergence", "--model", "example1", "--n", "100"],
        ["analyze", "--model", "example4", "--thresh", "0.5"],
    ], ids=["analyze-convergence-flags", "convergence-sampling-flags",
            "bounds-foreign-flags", "analyze-epsilon", "bounds-m1-m2",
            "convergence-h", "convergence-n", "abbreviated-threshold"])
    def test_flag_the_command_does_not_declare_is_usage_error(self, argv, tmp_path,
                                                              capsys):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"usage: sensyn {argv[0]} ")
        assert f"sensyn {argv[0]}: error: unrecognized arguments" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2


# Flag values for the command-line property: per command and per model,
# each flag with values it accepts or that lie just outside its range; one
# flag of a command line may take a value from the pool instead.  Sizes stay
# small: --n and --sizes at most 50, --seeds at most 2.
COMMAND_FLAGS = {
    "analyze": {"--n": ("50", "7"), "--methods": ("all", "sobol,gas", "dgsm,as"),
                "--m1": ("5",), "--m2": ("2",), "--h": ("1e-3",),
                "--m": ("auto", "1", "5"), "--threshold": ("0.5",),
                "--format": ("json", "csv")},
    "bounds": {"--n": ("50", "20"), "--h": ("1e-3",), "--m": ("auto", "1", "5"),
               "--threshold": ("0.5",), "--epsilon": ("0.01", "0.49")},
    "convergence": {"--methods": ("all", "gas"), "--sizes": ("10,50", "2,5", "50,10"),
                    "--seeds": ("1", "2")},
}
SHARED_FLAGS = {"--seed": ("3", "18446744073709551616"),
                "--slope-window": ("0.5", "0.89", "0.9")}
MODEL_FLAGS = {"example1": {"--noise": ("1",)}, "example2": {"--theta": ("1,2", "0,1,0")},
               "example4": {"--c": ("1,2,3,4", "1,2"), "--c12": ("2",)},
               "linear": {"--c": ("1,2", "1,-2,3")},
               "quadratic": {"--A": ("diag:2,0", "1,0.5;0.5,-1", "1,2;2"),
                             "--b": ("0,1", "1")}}
POOL = ("0", "-1", "nan", "inf", "1e400", "", "x")
REQUIRED = {"analyze": ("--n",), "bounds": ("--n",), "convergence": ("--sizes", "--seeds"),
            "linear": ("--c",), "quadratic": ("--A", "--b")}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    model = draw(st.sampled_from(sorted(MODEL_FLAGS)))
    flags = {**SHARED_FLAGS, **COMMAND_FLAGS[command], **MODEL_FLAGS[model],
             "--model": (model,)}
    # the defaults of --n, --sizes and --seeds run up to 10,000 rows
    chosen = ["--model", *REQUIRED[command], *REQUIRED.get(model, ())]
    chosen += draw(st.lists(st.sampled_from(sorted(set(flags) - set(chosen))),
                            max_size=3, unique=True))
    spoiled = draw(st.sampled_from([None, None, *chosen]))
    argv = [command]
    for flag in chosen:
        argv.append(f"{flag}={draw(st.sampled_from(POOL if flag == spoiled else flags[flag]))}")
    return argv


class TestCommandLineProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(command_lines())
    def test_every_command_line_exits_cleanly(self, argv):
        # exit 0, 1 or 2 with no traceback, and a usage error writes nothing
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = _front.main([*argv, f"--out={work}/out.json"])
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            written = os.listdir(work)
        assert code in (0, 1, 2), (argv, out.getvalue())
        assert "Traceback" not in out.getvalue(), argv
        assert code != 2 or not written, (argv, written)


class TestProcessExit:
    def test_console_entry_through_a_pipe(self, tmp_path):
        args = ["bounds", "--model", "example4", "--n", "200"]
        out = tmp_path / "piped.json"
        proc = subprocess.run([sys.executable, "-m", "sensyn.cli", *args, "--out", str(out)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"wrote {out} (") and "checks passed" in proc.stdout
        assert main(args + ["--out", str(tmp_path / "in_process.json")]) == 0
        assert out.read_bytes() == (tmp_path / "in_process.json").read_bytes()

    def test_only_the_console_entry_freezes(self, tmp_path):
        argv = ["bounds", "--model", "example4", "--n", "200", "--out", str(tmp_path / "b.json")]
        assert _front.main(argv) == 0
        assert gc.get_freeze_count() == 0
        script = ("import gc, sys, sensyn\n"
                  "sys.argv = ['sensyn', *sys.argv[1:]]\n"
                  "assert sensyn._cli_main() == 0\n"
                  "assert gc.get_freeze_count() > 0\n")
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestBenchmarkCommands:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(workloads.WHY))
    def test_every_benchmark_command_passes_the_usage_checks(self, name, seed,
                                                             monkeypatch):
        # stub out what runs after parsing and checking, so nothing samples
        for command in ("cmd_analyze", "cmd_bounds", "cmd_convergence"):
            monkeypatch.setattr(cli, command, lambda args, model: 0)
        monkeypatch.setattr(_front, "cmd_plot", lambda args: 0)
        for command in workloads.commands(name, seed):
            assert main(command.argv) == 0, command.argv


DGSM_CHECKS = ["linear_dgsm_equality", "dgsm_bound_unit_cube", "dgsm_bound_general"]


class TestBoundsCommand:
    def test_smallest_n_runs_two_rows_per_batch(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bounds", "--model", "example4", "--n", "20",
                     "--seed", "2", "--out", str(out)])
        assert code in (0, 1)  # verdicts of 2-row batches may go either way
        assert json.loads(out.read_text())["meta"]["n_per_batch"] == 2

    def test_example4_bounds(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bounds", "--model", "example4", "--n", "5000",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        done = [c for c in data["bounds"] if "skipped" not in c]
        assert done and all(c["all_passed"] for c in done)

    def test_quadratic_bounds(self, tmp_path):
        out = tmp_path / "bq.json"
        code = main(["bounds", "--model", "quadratic", "--A", "diag:2,0",
                     "--b", "0,1", "--n", "5000", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        names = [c["name"] for c in data["bounds"]]
        assert "quadratic_identity" in names

    @pytest.mark.parametrize("extra, weighted", [([], False), (["--slope-window", "0.35"], True)],
                             ids=["default", "window-0.35"])
    def test_window_0_computes_no_pair_weight(self, extra, weighted, tmp_path, monkeypatch):
        # at the quadratic's default window of 0 the slope matrix is a plain
        # mean, so no pair weight P(|b - a| >= gap) and no normal CDF is
        # computed; a window above 0 weights its normal inputs' quotients
        calls = []
        cdf = subspace.normal_cdf
        monkeypatch.setattr(subspace, "normal_cdf", lambda x: calls.append(1) or cdf(x))
        out = tmp_path / "q.json"
        assert main(["bounds", "--model", "quadratic", "--A=2,0.5,0;0.5,1,0.3;0,0.3,0.5",
                     "--b=0.2,-0.4,0.1", "--n", "5000", "--seed", "2", *extra,
                     "--out", str(out)]) == 0
        assert bool(calls) == weighted

    @pytest.mark.parametrize("argv, window", [
        (["--model", "example2", "--n", "2000"], 0.35),
        (["--model", "example4", "--n", "2000"], 0.0),
        (["--model", "quadratic", "--A", "diag:2,0", "--b", "0,1", "--n", "2000"], 0.0),
        (["--model", "example1", "--n", "2000"], None)],
        ids=["example2", "example4", "quadratic", "no-slope-matrix"])
    def test_default_window_writes_the_bytes_of_that_window(self, argv, window, tmp_path):
        # example2 is discontinuous and keeps window 0.35; the meta records
        # the window, null where no check reads a slope matrix
        blobs = []
        for extra in ([], ["--slope-window", "0.35" if window is None else str(window)]):
            out = tmp_path / f"b{len(blobs)}.json"
            assert main(["bounds", *argv, "--seed", "2", *extra, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["meta"]["slope_window"] == window

    def test_example2_bounds_with_kappa(self, tmp_path):
        out = tmp_path / "b2.json"
        code = main(["bounds", "--model", "example2", "--epsilon", "0.01",
                     "--n", "2000", "--seed", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        general = [c for c in data["bounds"]
                   if c["name"].startswith("gas_bound_general")]
        assert general and general[0]["details"]["kappa"] == pytest.approx(
            4.5983066034243985e-4, rel=1e-9)

    def test_ignored_input_has_both_sides_zero(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--model", "linear", "--c", "1,2,0", "--n", "2000",
                     "--seed", "4", "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads(out.read_text())["bounds"]}
        # as_score_bound_unit_cube is left out: its spill term is round-off there
        for name in DGSM_CHECKS:
            assert (checks[name]["lhs"][2], checks[name]["rhs"][2]) == (0.0, 0.0), name

    @pytest.mark.parametrize("argv, names, skipped", [
        (["--model", "example1"], [*DGSM_CHECKS, "as_score_bound_general"], 1),
        (["--model", "example1", "--noise", "1"],
         [*DGSM_CHECKS, "as_score_bound_general"], 2),
        (["--model", "example2"],
         ["gas_bound_general(m=10)", *DGSM_CHECKS, "as_score_bound_general"], 4),
        (["--model", "example4"], ["gas_bound_uniform(m=1)", "gas_bound_uniform(m=4)",
                                   *DGSM_CHECKS, "as_score_bound_unit_cube"], 1),
        (["--model", "linear", "--c", "2"],
         ["gas_bound_uniform(m=1)", *DGSM_CHECKS, "as_score_bound_unit_cube"], 0),
        (["--model", "linear", "--c", "1,2,0.5"],
         ["gas_bound_uniform(m=1)", "gas_bound_uniform(m=3)", *DGSM_CHECKS,
          "as_score_bound_unit_cube"], 0),
        (["--model", "quadratic", "--A", "diag:2,0", "--b", "0,1"],
         ["quadratic_identity", *DGSM_CHECKS, "as_score_bound_general"], 2),
    ], ids=["example1", "example1-noisy", "example2", "example4", "linear-d1",
            "linear-d3", "quadratic"])
    def test_each_builtin_reports_each_applicable_check_once(
            self, tmp_path, capsys, argv, names, skipped):
        out = tmp_path / "b.json"
        assert main(["bounds", *argv, "--n", "2000", "--seed", "0",
                     "--out", str(out)]) == 0
        got = [c["name"] for c in json.loads(out.read_text())["bounds"]]
        assert got == names and len(set(got)) == len(got)
        done = len(names) - skipped
        assert capsys.readouterr().out == (
            f"wrote {out} ({done}/{done} checks passed, {skipped} skipped)\n")

    def test_threshold_reaches_dgsm_bounds(self, tmp_path):
        def bounds(*extra):
            out = tmp_path / f"b{len(extra)}{''.join(extra)}.json"
            code = main(["bounds", "--model", "example4", "--n", "2000",
                         "--seed", "3", *extra, "--out", str(out)])
            assert code == 0
            return out.read_bytes()

        default = bounds()
        assert bounds("--threshold", "0.9") == default
        before = {c["name"]: c for c in json.loads(default)["bounds"]}
        after = {c["name"]: c for c in json.loads(bounds("--threshold", "0.5"))["bounds"]}
        assert before.keys() == after.keys()
        for name in before:
            if name.startswith("as_score_bound_"):
                assert after[name]["rhs"] != before[name]["rhs"]
                assert after[name]["lhs"] == before[name]["lhs"]
            else:
                assert after[name] == before[name]


class TestConvergenceCommand:
    def test_linear_sanity(self, tmp_path):
        out = tmp_path / "conv.json"
        code = main(["convergence", "--model", "linear", "--c",
                     "1,2,3,4,5,6,7,8,9,10", "--sizes", "100,1000,10000",
                     "--seeds", "5", "--seed", "0", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        for table in data["tables"]:
            assert table["full_match_fraction"][-1] == 1.0
        assert (tmp_path / "conv.svg").exists()

    def test_gas_table_records_the_window(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main(["convergence", "--model", "example4", "--sizes", "10,100",
                     "--seeds", "2", "--out", str(out)]) == 0
        sobol, gas = json.loads(out.read_text())["tables"]
        assert "slope_window" not in sobol["meta"]
        assert gas["meta"]["slope_window"] == 0.0

    def test_example2_reference_is_closed_form(self, tmp_path, model_rows):
        out = tmp_path / "conv.json"
        assert main(["convergence", "--model", "example2", "--sizes", "10,100",
                     "--seeds", "1", "--out", str(out)]) == 0
        # the cells alone: no 100,000-point reference draw
        assert 0 < sum(model_rows) < 100_000
        theta = make_builtin("example2").reference_direction
        expected = rank(indicator_upper_sobol(theta)).tolist()
        tables = json.loads(out.read_text())["tables"]
        assert tables and all(t["meta"]["reference"] == expected for t in tables)


class TestPlotCommand:
    @pytest.fixture()
    def report_path(self, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", "--model", "example4", "--methods", "all",
              "--n", "1000", "--seed", "4", "--out", str(out)])
        return out

    def test_version_1_report_draws_as_its_version_2(self, report_path, tmp_path):
        data = json.loads(report_path.read_text())
        del data["meta"]["schema_version"], data["meta"]["slope_window"]
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(data))
        for kind in ("bars", "spectrum", "eigvec"):
            for path in (report_path, old):
                assert main(["plot", str(path), "--kind", kind,
                             "--out", str(path.with_suffix(".svg"))]) == 0
            assert old.with_suffix(".svg").read_bytes() == report_path.with_suffix(".svg").read_bytes()

    @pytest.mark.parametrize("kind", ["bars", "spectrum", "eigvec"])
    def test_kinds(self, report_path, tmp_path, kind):
        out = tmp_path / f"{kind}.svg"
        assert main(["plot", str(report_path), "--kind", kind,
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_malformed_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plot", str(bad), "--out", str(tmp_path / "x.svg")]) == 1
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("scores.sobol_upper", float("nan")),
        ("spectra.gas_first_eigenvector", float("-inf")),
        ("meta.threshold", float("inf")),
        # an integer no float can hold
        pytest.param("scores.sobol_upper", 10**400, id="scores.sobol_upper-10**400"),
        pytest.param("meta.threshold", 10**400, id="meta.threshold-10**400"),
        ("scores.dgsm_raw", None),  # one number short of d
    ])
    def test_report_a_chart_cannot_hold(self, report_path, tmp_path, capsys,
                                        field, value):
        section, key = field.split(".")
        data = json.loads(report_path.read_text())
        if value is None:
            data[section][key].pop()
        elif isinstance(data[section][key], list):
            data[section][key][1] = value
        else:
            data[section][key] = value
        report_path.write_text(json.dumps(data))  # NaN and Infinity literals
        for kind in ("bars", "spectrum", "eigvec"):
            out = tmp_path / f"{kind}.svg"
            assert main(["plot", str(report_path), "--kind", kind,
                         "--out", str(out)]) == 1
            assert f"cannot parse report {report_path}: {field} " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("meta.d", 4.7),
        ("meta.d", "4"),
        ("meta.d", True),
        ("meta.seed", 4.0),
        ("meta.h", True),
        ("meta.threshold", "0.9"),
        ("meta.model", 4),
        ("meta.methods", "sobol"),
        ("meta.methods", ["sobol", 2]),
        ("scores.sobol_upper", ["0.25"] * 4),
        ("spectra.gas_eigenvalues", [1, 0.5, False, 0.0]),
        ("spectra.m_gas", 2.0),
    ])
    def test_report_with_a_value_of_another_json_type(
            self, report_path, tmp_path, capsys, field, value):
        section, key = field.split(".")
        data = json.loads(report_path.read_text())
        data[section][key] = value
        report_path.write_text(json.dumps(data))
        for kind in ("bars", "spectrum", "eigvec"):
            out = tmp_path / f"{kind}.svg"
            assert main(["plot", str(report_path), "--kind", kind,
                         "--out", str(out)]) == 1
            assert f"cannot parse report {report_path}: {field} " in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda data: {**data, "spectra": {k: v for k, v in data["spectra"].items()
                                           if k != "gas_eigenvalues"}},
         "spectra.gas_eigenvalues is missing"),
        (lambda data: {k: v for k, v in data.items() if k != "scores"},
         "scores is missing"),
        (lambda data: {**data, "meta": 5}, "meta is 5, not an object"),
        (lambda data: {**data, "scores": []}, "scores is a list, not an object"),
        (lambda data: [data], "the report is a list, not an object"),
    ], ids=["missing-field", "missing-section", "meta-number", "scores-list",
            "report-list"])
    def test_report_without_a_field_or_an_object(self, report_path, tmp_path,
                                                  capsys, edit, message):
        report_path.write_text(json.dumps(edit(json.loads(report_path.read_text()))))
        for kind in ("bars", "spectrum", "eigvec"):
            out = tmp_path / f"{kind}.svg"
            assert main(["plot", str(report_path), "--kind", kind,
                         "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: cannot parse report {report_path}: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("d", [0, -2])
    def test_report_without_inputs(self, report_path, tmp_path, capsys, d):
        # every vector emptied: at d = 0 each length matches meta.d, so only
        # the check on meta.d itself can reject the report
        data = json.loads(report_path.read_text())
        data["meta"]["d"] = d
        for section in ("scores", "spectra"):
            for key, value in data[section].items():
                if isinstance(value, list):
                    data[section][key] = []
        report_path.write_text(json.dumps(data))
        for kind in ("bars", "spectrum", "eigvec"):
            out = tmp_path / f"{kind}.svg"
            assert main(["plot", str(report_path), "--kind", kind,
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == (f"error: cannot parse report {report_path}: "
                           f"meta.d is {d}, not at least 1\n")
            assert not out.exists()

    @pytest.mark.parametrize("field, kind, message", [
        ("spectra.gas_cumulative", "spectrum",
         "spectra.gas_cumulative is null, but meta.methods lists gas"),
        ("spectra.as_first_eigenvector", "eigvec",
         "spectra.as_first_eigenvector is null, but meta.methods lists as"),
        ("meta.threshold", "spectrum", "meta.threshold is null"),
        # the bars chart once drew the report without GAS and exited 0
        ("spectra.m_gas", "bars", "spectra.m_gas is null, but meta.methods lists gas"),
    ], ids=["spectra.gas_cumulative", "spectra.as_first_eigenvector",
            "meta.threshold", "spectra.m_gas"])
    def test_report_with_a_null_the_chart_needs(self, report_path, tmp_path, capsys,
                                                field, kind, message):
        section, key = field.split(".")
        data = json.loads(report_path.read_text())
        data[section][key] = None
        report_path.write_text(json.dumps(data))
        out = tmp_path / f"{kind}.svg"
        assert main(["plot", str(report_path), "--kind", kind, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot parse report {report_path}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind, what", [("spectrum", "spectra"),
                                            ("eigvec", "eigenvectors")])
    def test_report_without_the_series(self, tmp_path, capsys, kind, what):
        report = tmp_path / "s.json"
        assert main(["analyze", "--model", "example4", "--methods", "sobol",
                     "--n", "200", "--out", str(report)]) == 0
        out = tmp_path / "s.svg"
        assert main(["plot", str(report), "--kind", kind, "--out", str(out)]) == 1
        assert f"error: report holds no {what} to plot" in capsys.readouterr().err
        assert not out.exists()


class TestReproducibility:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--model", "example1", "--noise", "1"],
        ["analyze", "--model", "example4"],
        ["analyze", "--model", "quadratic", "--A", "diag:2,0", "--b", "0,1"],
        ["analyze", "--model", "example2"],
        ["analyze", "--model", "example1", "--methods", "dgsm,as"],
        ["bounds", "--model", "example1", "--noise", "1"],
        ["bounds", "--model", "example4"],
        ["bounds", "--model", "quadratic", "--A", "diag:2,0", "--b", "0,1"],
        ["bounds", "--model", "example2"],
    ], ids=["analyze-example1-noisy", "analyze-example4", "analyze-quadratic",
            "analyze-example2", "analyze-example1-dgsm-as", "bounds-example1-noisy",
            "bounds-example4", "bounds-quadratic", "bounds-example2"])
    def test_forward_difference_gradients_keep_their_bytes(self, argv, tmp_path,
                                                           monkeypatch):
        # a noisy or non-multilinear model, or gradients without a design,
        # never reads gradients off a design, and writes what the forward
        # differences alone write: no caller takes the gradient rule
        def unused(*args, **kwargs):
            raise AssertionError("these gradients are forward differences")
        blobs = []
        for forced in (False, True):
            with monkeypatch.context() as patch:
                if forced:
                    patch.setattr(subspace, "noise_free_multilinear", lambda model: False)
                else:
                    patch.setattr(subspace, "GradientSlopes", unused)
                out = tmp_path / f"forced-{forced}.json"
                assert main([*argv, "--n", "2000", "--seed", "6", "--out", str(out)]) == 0
                blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["analyze", "--model", "example4", "--methods", "all",
                "--n", "2000", "--seed", "9"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        monkeypatch.setenv("SENSYN_SEED", "77")
        main(["analyze", "--model", "example4", "--methods", "sobol",
              "--n", "500", "--out", str(out1)])
        monkeypatch.delenv("SENSYN_SEED")
        main(["analyze", "--model", "example4", "--methods", "sobol",
              "--n", "500", "--seed", "77", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_count_invariance(self, tmp_path):
        # 50,000 rows: the largest matrix-vector product any built-in makes
        for n in ("2000", "50000"):
            outputs = []
            for threads in ("1", "4"):
                out = tmp_path / f"n{n}-t{threads}.json"
                env = dict(os.environ)
                env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
                proc = subprocess.run(
                    [sys.executable, "-m", "sensyn.cli", "analyze", "--model",
                     "example1", "--methods", "all", "--n", n, "--seed",
                     "13", "--out", str(out)],
                    env=env, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], n

    def test_eigensolver_thread_count_invariance(self):
        # inputs are built elementwise, so only sym_eig could bring in BLAS
        script = (
            "import sys, numpy as np; from sensyn import sym_eig\n"
            "for d in (101, 150):\n"
            "    raw = np.random.default_rng(d).normal(size=(d, d))\n"
            "    spec = sym_eig((raw + raw.T) / 2.0)\n"
            "    sys.stdout.write(spec.eigenvalues.tobytes().hex())\n"
            "    sys.stdout.write(spec.eigenvectors.tobytes().hex())\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env.update(OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_simd_dispatch_invariance(self, tmp_path):
        # numpy picks its SIMD kernels at run time; a kernel that rounds
        # differently from the baseline one would change the output bytes.
        # Normal inputs too: their quantile's tail log is arithmetic, not
        # numpy's vector log, whose AVX-512 kernel differs in the last bit
        # for ~2 in 10**4 tail arguments; at 20,000 rows the quadratic draws
        # enough of them to show it
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__
        if not __cpu_dispatch__:
            pytest.skip("this numpy dispatches no SIMD kernels at run time")
        quadratic = ["--model", "quadratic", "--A=2,0.5,0;0.5,1,0.3;0,0.3,0.5",
                     "--b=0.2,-0.4,0.1", "--n", "20000"]
        commands = [
            ["analyze", "--model", "example1", "--n", "2000"],
            ["analyze", "--model", "example4", "--n", "2000"],
            ["analyze", "--model", "linear", "--c", "1,-2,3", "--n", "2000"],
            ["bounds", "--model", "example4", "--n", "2000"],
            ["analyze", "--model", "example2", "--n", "2000"],
            ["analyze", *quadratic],
            ["bounds", *quadratic],
        ]
        script = (
            "import json, os, sys\n"
            "import sensyn.cli as cli\n"
            "os.chdir(sys.argv[1])\n"
            "for k, args in enumerate(json.loads(sys.argv[2])):\n"
            "    assert cli.main(args + ['--out', f'{k}.json']) == 0, args\n")
        outputs = []
        for disabled in (None, " ".join(__cpu_dispatch__)):
            env = dict(os.environ)
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if disabled:
                env["NPY_DISABLE_CPU_FEATURES"] = disabled
            run_dir = tmp_path / ("baseline" if disabled else "default")
            run_dir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-c", script, str(run_dir), json.dumps(commands)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(run_dir / f"{k}.json").read_bytes()
                            for k in range(len(commands))])
        for args, default, baseline in zip(commands, *outputs):
            assert default == baseline, args


class TestStartup:
    def test_import_loads_every_layer_the_benchmark_traces(self):
        # bench/tracer.py indexes sys.modules by these names after this import
        tracer = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        layers, = [ast.literal_eval(node.value)
                   for node in ast.parse(tracer.read_text()).body
                   if isinstance(node, ast.Assign)
                   and ast.unparse(node.targets[0]) == "LAYER_MODULES"]
        script = ("import sys, sensyn.cli\n"
                  f"missing = [m for m in {layers!r} if 'sensyn.' + m not in sys.modules]\n"
                  "assert not missing, missing\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("name, params, methods, flags", [
        ("example4", {}, ("sobol", "dgsm", "as", "gas"), ["--methods", "all"]),
        ("example2", {"direction": THETA_100}, ("sobol", "gas"),
         ["--methods", "sobol,gas", "--theta=" + ",".join(map(repr, THETA_100))]),
    ], ids=["example4-all", "example2-d100"])
    def test_plot_loads_no_numpy_and_draws_the_in_memory_charts(
            self, tmp_path, name, params, methods, flags):
        path = tmp_path / "r.json"
        assert main(["analyze", "--model", name, *flags, "--n", "1000",
                     "--seed", "5", "--out", str(path)]) == 0
        report = build_report(make_builtin(name, **params), seed=5, n=1000,
                              methods=methods)
        script = (
            "import sys, sensyn\n"
            "report, out = sys.argv[1:]\n"
            "for kind in ('bars', 'spectrum', 'eigvec'):\n"
            "    sys.argv = ['sensyn', 'plot', report, '--kind', kind,\n"
            "                '--out', f'{out}/{kind}.svg']\n"
            "    assert sensyn._cli_main() == 0, kind\n"
            "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for kind, chart in (("bars", bars_chart), ("spectrum", spectrum_chart),
                            ("eigvec", eigvec_chart)):
            assert (tmp_path / f"{kind}.svg").read_bytes() == chart(report).encode(), kind

    def test_no_command_loads_scipy(self, tmp_path):
        # a fresh interpreter in which any scipy import fails
        script = (
            "import os, sys\n"
            "sys.modules['scipy'] = None\n"
            "import sensyn.cli as cli\n"
            "os.chdir(sys.argv[1])\n"
            "for args in (['analyze', '--model', 'example2', '--n', '500',\n"
            "              '--methods', 'sobol,gas', '--out', 'r.json'],\n"
            "             ['bounds', '--model', 'quadratic', '--A', 'diag:2,0',\n"
            "              '--b', '0,1', '--n', '2000', '--out', 'q.json'],\n"
            "             ['bounds', '--model', 'example2', '--n', '2000',\n"
            "              '--out', 'b.json'],\n"
            "             ['convergence', '--model', 'example1', '--noise', '1',\n"
            "              '--sizes', '10,100', '--seeds', '2', '--out', 'c.json'],\n"
            "             ['plot', 'r.json', '--out', 'r.svg']):\n"
            "    assert cli.main(args) == 0, args\n"
            "loaded = sorted(k for k, m in sys.modules.items()\n"
            "                if k.startswith('scipy') and m is not None)\n"
            "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("r.json", "q.json", "b.json", "c.json", "r.svg"):
            assert (tmp_path / name).exists(), name

    def test_uniform_slope_matrix_never_loads_scipy(self, tmp_path):
        # the separated-pair redraw of uniform marginals needs no normal CDF
        script = (
            "import os, sys\n"
            "import sensyn.cli as cli\n"
            "from sensyn import RngStream, estimate_c_gas, make_example1, make_linear\n"
            "for window in (0.0, 0.35, 0.89):\n"
            "    estimate_c_gas(make_example1(), 500, 2, RngStream(1),\n"
            "                   slope_window=window)\n"
            "    estimate_c_gas(make_linear([1.0, 2.0], [(2.0, 7.0), (-3.0, -2.5)]),\n"
            "                   500, 1, RngStream(2), slope_window=window)\n"
            "os.chdir(sys.argv[1])\n"
            "assert cli.main(['analyze', '--model', 'example1', '--methods', 'gas',\n"
            "                 '--n', '500', '--slope-window', '0.89',\n"
            "                 '--out', 'g.json']) == 0\n"
            "assert 'scipy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "g.json").exists()
