"""Command-line front end: analyses, bound checks, convergence studies, plots.

Each subcommand declares only the flags it reads.  ``analyze``, ``bounds``
and ``convergence`` share ``--model`` with the six model flags, ``--seed``,
``--out`` and ``--slope-window``; ``analyze`` adds ``--methods``, ``--n``,
``--m1``, ``--m2``, ``--h``, ``--m``, ``--threshold`` and ``--format``;
``bounds`` adds ``--n``, ``--h``, ``--m``, ``--threshold`` and
``--epsilon``; ``convergence`` adds ``--methods``, ``--sizes`` and
``--seeds``.  A flag the command does not declare, or an abbreviated one,
is an argparse usage error that prints the command's own usage.

Exit codes: 0 on success, 1 on a runtime/estimation failure, 2 on a usage
error; a usage error names the flag at fault, also when its value does not
parse.  A warning raised while the model is built (a ridge direction that
was not unit length) prints as one ``note:`` line on stderr.  The seed
defaults to the ``SENSYN_SEED`` environment variable, then to 0; a seed
that is not an integer, or does not fit in an unsigned 64-bit word, is a
usage error that names ``--seed`` or ``SENSYN_SEED``, whichever gave it.
With a fixed seed every command writes byte-identical output files.

The parser and ``plot`` live in :mod:`sensyn._front`, which loads no numpy;
the console script runs it directly, so ``plot`` never imports this module.
:func:`main` parses through it too and :func:`run` takes the other commands.
Importing this module loads every layer: the estimators, ``report``,
``output`` and ``svgplot``.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    # ``python -m sensyn.cli`` is the console script: hand over to its entry,
    # which sets the BLAS default before the numpy import below can run.
    from sensyn import _cli_main

    sys.exit(_cli_main())

import math
import os
import warnings
from pathlib import Path

import numpy as np

from . import _front, output, svgplot
from . import bounds as bounds_mod
from .errors import InputDomainError, SensynError
from .models import (analytic_anova, builtin_names, indicator_upper_sobol,
                     make_builtin)
from .output import METHOD_NAMES
from .randkit import RngStream
from .report import build_report, convergence_study, rank
from .variance import upper_sobol  # noqa: F401  (bench/test_counts.py looks it up here)


def _require(ok, message: str) -> None:
    if not ok:
        raise InputDomainError(message)


def _parse_methods(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return METHOD_NAMES
    methods = tuple(dict.fromkeys(t.strip().lower() for t in spec.split(",")))
    for name in methods:
        _require(name in METHOD_NAMES,
                 f"unknown method {name!r}; choose from sobol,dgsm,as,gas or 'all'")
    return methods


def _convert(flag: str, kind, text: str):
    """``kind(text)``, or a usage error that names ``flag``."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InputDomainError(f"{flag}: {text!r} is not {what}") from None


def _floats(flag: str, spec: str) -> list[float]:
    """The comma list ``spec`` of ``flag`` as floats."""
    return [_convert(flag, float, v) for v in spec.split(",")]


def _parse_matrix(spec: str) -> np.ndarray:
    """Matrix syntax: ``diag:a,b,...`` or semicolon-separated rows ``a,b;c,d``."""
    if spec.startswith("diag:"):
        return np.diag(_floats("--A", spec[5:]))
    rows = [_floats("--A", row) for row in spec.split(";")]
    _require(len({len(row) for row in rows}) == 1,
             f"--A: rows of different lengths in {spec!r}")
    return np.asarray(rows, dtype=np.float64)


# the model flags (argparse dest and spelling) and the built-ins that take them
_MODEL_FLAGS = {
    "noise": ("--noise", ("example1",)),
    "theta": ("--theta", ("example2",)),
    "c": ("--c", ("example4", "linear")),
    "c12": ("--c12", ("example4",)),
    "a_matrix": ("--A", ("quadratic", "quadratic_normal")),
    "b_vector": ("--b", ("quadratic", "quadratic_normal")),
}


def _model_from_args(args):
    _require(args.model in set(builtin_names()) | {"quadratic"},
             f"unknown model {args.model!r}; choose from {builtin_names()}")
    ignored = [flag for dest, (flag, models) in _MODEL_FLAGS.items()
               if getattr(args, dest) is not None and args.model not in models]
    _require(not ignored, f"model {args.model!r} does not take {', '.join(ignored)}")
    params = {}
    if args.model == "example1" and args.noise is not None:
        params["noise_scale"] = args.noise
    if args.model == "example2" and args.theta:
        params["direction"] = _floats("--theta", args.theta)
    if args.model == "example4":
        if args.c:
            params["c"] = _floats("--c", args.c)
        if args.c12 is not None:
            params["c12"] = args.c12
    if args.model == "linear":
        _require(args.c, "linear model requires --c coefficients")
        params["coefficients"] = _floats("--c", args.c)
    if args.model in ("quadratic", "quadratic_normal"):
        _require(args.a_matrix is not None and args.b_vector is not None,
                 "quadratic model requires --A and --b")
        params["a_matrix"] = _parse_matrix(args.a_matrix)
        params["b"] = _floats("--b", args.b_vector)
    return make_builtin(args.model, **params)


# Each _check_* turns one command's flags into the values its cmd_* reads and
# rejects, before any sampling, a value no estimator or check could use.
def _check_shared(args) -> None:
    source = "--seed"
    if args.seed is None:  # SENSYN_SEED, then 0
        source, env = "SENSYN_SEED", os.environ.get("SENSYN_SEED")
        args.seed = _convert(source, int, env) if env else 0
    _require(0 <= args.seed < 2**64,
             f"{source} must fit in an unsigned 64-bit word, got {args.seed}")
    if args.slope_window is not None:  # None: the model's default window
        _require(0.0 <= args.slope_window < 0.9,
                 f"--slope-window must lie in [0, 0.9), got {args.slope_window:g}")


def _check_sampling(args, model) -> None:
    """``--n``, ``--h``, ``--m`` and ``--threshold``, read by analyze and bounds."""
    if args.n is None:
        args.n = 10_000
    _require(args.n >= 1, f"--n must be at least 1, got {args.n}")
    _require(0.0 < args.h < math.inf, f"--h must lie in (0, inf), got {args.h:g}")
    args.m = None if args.m in (None, "auto") else _convert("--m", int, args.m)
    _require(args.m is None or 1 <= args.m <= model.d,
             f"--m must lie in 1..{model.d} for model {model.label!r}, got {args.m}")
    _require(0.0 <= args.threshold < 1.0,
             f"--threshold must lie in [0, 1), got {args.threshold:g}")


def _check_analyze(args, model) -> None:
    args.methods = _parse_methods(args.methods)
    _require(args.m1 is None or args.m1 >= 1, f"--m1 must be at least 1, got {args.m1}")
    _require(args.m2 >= 1, f"--m2 must be at least 1, got {args.m2}")
    if args.n is None and args.m1 is not None:
        args.n = args.m1 * args.m2
    _check_sampling(args, model)
    if args.m1 is None:  # an omitted --m1 is n / m2
        _require(args.n % args.m2 == 0,
                 f"--n {args.n} must equal --m1 times --m2, and --m2 {args.m2} does not divide it")
        args.m1 = args.n // args.m2
    _require(args.n == args.m1 * args.m2,
             f"--n {args.n} must equal --m1 {args.m1} times --m2 {args.m2}")
    _require("sobol" not in args.methods or args.n >= 2,
             f"--n must be at least 2 for the sobol method, got {args.n}")


def _check_bounds(args, model) -> None:
    _check_sampling(args, model)
    min_n = 2 * bounds_mod.N_BATCHES
    _require(args.n >= min_n,
             f"--n must be at least {min_n} for bounds ({bounds_mod.N_BATCHES} "
             f"batches of at least 2 rows), got {args.n}")
    _require(0.0 < args.epsilon < 0.5,
             f"--epsilon must lie in (0, 0.5), got {args.epsilon:g}")


def _check_convergence(args, model) -> None:
    args.methods = _parse_methods(args.methods)
    _require("sobol" in args.methods or "gas" in args.methods,
             "convergence needs the sobol and/or gas methods")
    sizes = tuple(_convert("--sizes", int, t) for t in args.sizes.split(",") if t.strip())
    _require(sizes, "need a nonempty --sizes list")
    _require(min(sizes) >= 2,
             f"every --sizes entry must be at least 2, got {min(sizes)}")
    _require(all(a < b for a, b in zip(sizes, sizes[1:])),
             f"--sizes must be strictly increasing, got {args.sizes}")
    args.sizes = sizes
    _require(args.seeds >= 1, f"--seeds must be at least 1, got {args.seeds}")


def cmd_analyze(args, model) -> int:
    report = build_report(
        model, seed=args.seed, methods=args.methods, n=args.n, m1=args.m1,
        m2=args.m2, h=args.h, threshold=args.threshold, m_override=args.m,
        slope_window=args.slope_window)
    out = Path(args.out if args.out else f"{args.model}_report.{args.format}")
    if args.format == "json":
        output.write_text(out, output.dumps_json(output.report_to_dict(report)) + "\n")
    else:
        oracle = analytic_anova(model)
        share = None
        if oracle is not None:
            share = [oracle.upper[i] for i in range(model.d)]
        output.write_text(out, output.report_to_csv(report, sigma2_share=share))
    print(f"wrote {out}")
    return 0


def cmd_bounds(args, model) -> int:
    n_batch = args.n // bounds_mod.N_BATCHES
    stats = bounds_mod.batch_statistics(
        model, n_batch, RngStream(args.seed), gas=bounds_mod.needs_slope_matrix(model),
        gradients=model.differentiable, h=args.h, slope_window=args.slope_window)
    checks = bounds_mod.applicable_checks(stats, m=args.m, epsilon=args.epsilon,
                                          threshold=args.threshold)
    payload = {
        "meta": {"model": model.label, "seed": args.seed, "n_per_batch": n_batch,
                 "epsilon": args.epsilon, "slope_window": stats.slope_window},
        "bounds": [output.bound_check_to_dict(c) for c in checks],
    }
    out = Path(args.out if args.out else f"{args.model}_bounds.json")
    output.write_text(out, output.dumps_json(payload) + "\n")
    done = [c for c in checks if c.skipped_reason is None]
    print(f"wrote {out} ({sum(c.all_passed for c in done)}/{len(done)} checks passed,"
          f" {len(checks) - len(done)} skipped)")
    return 0 if all(c.all_passed for c in done) else 1


def cmd_convergence(args, model) -> int:
    oracle = analytic_anova(model)
    if oracle is not None:
        reference = rank(oracle.upper)
    else:  # every other built-in is example2, whose ridge gives exact indices
        reference = rank(indicator_upper_sobol(model.reference_direction))
    methods = [method for name, method in (("sobol", "upper_sobol"), ("gas", "gas_scores"))
               if name in args.methods]
    tables = convergence_study(model, methods, args.sizes, args.seeds, reference,
                               base_seed=args.seed, slope_window=args.slope_window)
    out = Path(args.out if args.out else f"{args.model}_convergence.json")
    payload = {"tables": [output.convergence_to_dict(t) for t in tables]}
    output.write_text(out, output.dumps_json(payload) + "\n")
    svg_path = out.with_suffix(".svg")
    output.write_text(svg_path, svgplot.convergence_chart(tables))
    print(f"wrote {out} and {svg_path}")
    return 0


def main(argv=None) -> int:
    """Run one ``sensyn`` command line; returns its exit code."""
    return _front.main(argv)


def run(args) -> int:
    """Check and run the parsed ``analyze``, ``bounds`` or ``convergence``
    command line ``args``; returns the exit code."""
    check, cmd = {"analyze": (_check_analyze, cmd_analyze),
                  "bounds": (_check_bounds, cmd_bounds),
                  "convergence": (_check_convergence, cmd_convergence)}[args.command]

    # configuration / model construction problems are usage errors
    try:
        _check_shared(args)
        # a model's warning (a ridge direction it normalized) is a one-line note
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = _model_from_args(args)
        for warning in caught:
            print(f"note: {warning.message}", file=sys.stderr)
        check(args, model)
    except (InputDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        return cmd(args, model)
    except SensynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
