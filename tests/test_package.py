"""Package namespace and process entries: lazy imports, the BLAS thread default."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sensyn

BLAS = "OPENBLAS_NUM_THREADS"

# the public names of the package: those its former eager namespace exported,
# and EmptySlopeWindowError, less the four bounds.check_* wrappers
PUBLIC = {
    "AnalyticAnova", "BoundCheck", "ConvergenceTable",
    "DEFAULT_SLOPE_WINDOW", "DegenerateSpectrumError",
    "EigenNotConvergedError", "EmptySlopeWindowError", "InputDomainError",
    "Model",
    "ModelOutputError", "Normal", "RngStream", "SensitivityReport",
    "SensynError", "SobolEstimate", "SpectralDecomposition",
    "SubspaceResult", "SubspaceSummary", "Uniform", "ZeroVarianceError",
    "analytic_anova", "build_report", "builtin_names",
    "c_as_from_gradients", "cheeger_constant", "cheeger_constant_grid",
    "convergence_study",
    "dgsm", "dgsm_from_gradients", "estimate_c_as", "estimate_c_gas",
    "estimate_sobol", "estimate_variance", "gradient_matrix",
    "indicator_upper_sobol", "inverse_cdf", "lower_sobol", "make_builtin",
    "make_example1", "make_example2", "make_example4", "make_linear",
    "make_quadratic_normal", "normal_cdf", "normal_inv_cdf", "normalize",
    "normalized_cumsum", "rank", "sample", "sample_inputs", "scores",
    "select_m", "subspace_analysis", "sym_eig", "upper_sobol",
}


def python(*argv, blas: str | None = None):
    """Run a fresh interpreter on ``argv`` with ``OPENBLAS_NUM_THREADS``
    unset, or set to ``blas``; returns the completed process."""
    env = dict(os.environ)
    env.pop(BLAS, None)
    if blas is not None:
        env[BLAS] = blas
    proc = subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def console_script_target() -> str:
    """``module:function`` of the ``sensyn`` console script in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    return re.search(r'^sensyn = "([\w.]+:\w+)"$', text, re.MULTILINE).group(1)


class TestNamespace:
    def test_import_loads_no_numpy_and_keeps_environ(self):
        python("-c", "import os, sys\n"
               "before = dict(os.environ)\n"
               "import sensyn\n"
               "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
               "assert dict(os.environ) == before, 'environment changed'\n")

    def test_public_names(self):
        assert len(PUBLIC) == 55
        assert set(sensyn.__all__) == PUBLIC
        assert PUBLIC <= set(dir(sensyn))
        for name in sensyn.__all__:
            getattr(sensyn, name)

    @pytest.mark.parametrize("first", ["sensyn.report", "sensyn.dgsm"])
    def test_dgsm_stays_the_function(self, first):
        # loading the submodule sensyn.dgsm must not rebind the public name
        python("-c", f"import inspect, sensyn, {first}\n"
               "from sensyn import dgsm\n"
               "assert inspect.isfunction(sensyn.dgsm), sensyn.dgsm\n"
               "assert dgsm is sensyn.dgsm\n"
               "assert sensyn.dgsm.__module__ == 'sensyn.dgsm'\n")

    def test_undone_patch_of_a_module_leaves_the_package_name(self):
        # a tracer or monkeypatch wraps the function in its module; the
        # package name read meanwhile must not keep the wrapper afterwards
        python("-c", "import sensyn, sensyn.variance as variance\n"
               "original = variance.upper_sobol\n"
               "variance.upper_sobol = lambda *a: None\n"
               "sensyn.upper_sobol\n"
               "variance.upper_sobol = original\n"
               "assert sensyn.upper_sobol is original, sensyn.upper_sobol\n")

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            sensyn.no_such_name


class TestBlasThreads:
    def test_importing_cli_leaves_blas_unset(self):
        python("-c", "import os, sensyn.cli\n"
               f"assert {BLAS!r} not in os.environ, os.environ[{BLAS!r}]\n")

    @pytest.mark.parametrize("entry", ["python -m", "console script"])
    @pytest.mark.parametrize("blas,seen", [(None, "1"), ("2", "2")],
                             ids=["unset", "user-set"])
    def test_program_defaults_to_one_thread(self, entry, blas, seen):
        if entry == "python -m":
            run = "runpy.run_module('sensyn.cli', run_name='__main__')"
        else:
            module, function = console_script_target().split(":")
            run = f"importlib.import_module({module!r}).{function}()"
        proc = python("-c", "import importlib, os, runpy, sys\n"
                      "sys.argv = ['sensyn', '--help']\n"
                      "try:\n"
                      f"    {run}\n"
                      "except SystemExit as exc:\n"
                      "    assert exc.code in (0, None), exc.code\n"
                      f"print('threads', os.environ.get({BLAS!r}))\n",
                      blas=blas)
        assert proc.stdout.splitlines()[-1] == f"threads {seen}"
