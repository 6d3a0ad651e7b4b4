"""Global sensitivity analysis toolkit.

Variance-based Sobol' indices, derivative-based measures, and the
eigenstructure scores of the gradient and finite-slope sensitivity matrices,
with reproducible counter-based sampling and numerical verification of the
inequalities relating the measures.

The namespace is lazy: ``import sensyn`` loads no submodule (and so no
numpy), and each public name below loads its module on first use.
"""

import importlib
import os
import sys
import types

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "bounds": ("BoundCheck",),
    "dgsm": ("dgsm", "dgsm_from_gradients", "gradient_matrix"),
    "errors": ("DegenerateSpectrumError", "EigenNotConvergedError",
               "EmptySlopeWindowError", "InputDomainError", "ModelOutputError",
               "SensynError", "ZeroVarianceError"),
    "linalg": ("SpectralDecomposition", "normalized_cumsum", "select_m", "sym_eig"),
    "models": ("AnalyticAnova", "Model", "analytic_anova", "builtin_names",
               "indicator_upper_sobol", "make_builtin", "make_example1",
               "make_example2", "make_example4", "make_linear",
               "make_quadratic_normal", "sample_inputs"),
    "randkit": ("Normal", "RngStream", "Uniform", "cheeger_constant",
                "cheeger_constant_grid", "inverse_cdf", "normal_cdf",
                "normal_inv_cdf", "sample"),
    "output": ("ConvergenceTable", "SensitivityReport", "SubspaceSummary"),
    "report": ("build_report", "convergence_study", "normalize", "rank"),
    "subspace": ("DEFAULT_SLOPE_WINDOW", "SubspaceResult", "c_as_from_gradients",
                 "estimate_c_as", "estimate_c_gas", "scores", "subspace_analysis"),
    "variance": ("SobolEstimate", "estimate_sobol", "estimate_variance",
                 "lower_sobol", "upper_sobol"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # Not cached: the package name follows its module's binding, so a patch
    # of ``sensyn.variance.upper_sobol``, once undone, leaves no trace here.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        # a defining submodule, reachable after a bare ``import sensyn``
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on its package.  The submodule
        # ``dgsm`` must not replace the public function of that name.
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _cli_main() -> int:
    """Entry of the ``sensyn`` console script and of ``python -m sensyn.cli``.

    OpenBLAS starts its worker threads when numpy loads, and idle workers
    spin after each matrix-vector product of the built-in models.  The
    estimators keep their reductions off threaded BLAS, so the threads
    change no result and only cost CPU.  This entry defaults them to one
    before numpy loads; a value the user set wins.  Importing sensyn never
    sets it.  The command line is parsed by :mod:`sensyn._front`, which
    runs ``plot`` without loading numpy.

    Once the command has returned, the process is about to exit, and the
    collections of interpreter shutdown would walk every object numpy and
    sensyn loaded, tens of milliseconds of CPU that free nothing a process
    needs.  ``gc.freeze()`` moves them out of the collector's reach; atexit
    handlers, stdio flushing and module teardown still run.  Library
    callers of :func:`sensyn._front.main` are not affected.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from ._front import main

    try:
        return main()
    finally:
        import gc

        gc.freeze()
