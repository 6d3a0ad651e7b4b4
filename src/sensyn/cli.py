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
error.  The seed defaults to the ``SENSYN_SEED`` environment variable, then
to 0; with a fixed seed every command writes byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # ``python -m sensyn.cli`` is the console script: hand over to its entry,
    # which sets the BLAS default before the numpy import below can run.
    from sensyn import _cli_main

    sys.exit(_cli_main())

import numpy as np

from . import bounds as bounds_mod
from . import output, svgplot
from .errors import InputDomainError, SensynError
from .models import (analytic_anova, builtin_names, indicator_upper_sobol,
                     make_builtin)
from .randkit import RngStream
from .report import METHOD_NAMES, build_report, convergence_study, rank
from .subspace import DEFAULT_SLOPE_WINDOW
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


def _parse_matrix(spec: str) -> np.ndarray:
    """Matrix syntax: ``diag:a,b,...`` or semicolon-separated rows ``a,b;c,d``."""
    if spec.startswith("diag:"):
        return np.diag([float(v) for v in spec[5:].split(",")])
    rows = [[float(v) for v in row.split(",")] for row in spec.split(";")]
    return np.asarray(rows, dtype=np.float64)


def _default_seed() -> int:
    env = os.environ.get("SENSYN_SEED")
    return int(env) if env else 0


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
        params["direction"] = [float(v) for v in args.theta.split(",")]
    if args.model == "example4":
        if args.c:
            params["c"] = [float(v) for v in args.c.split(",")]
        if args.c12 is not None:
            params["c12"] = args.c12
    if args.model == "linear":
        _require(args.c, "linear model requires --c coefficients")
        params["coefficients"] = [float(v) for v in args.c.split(",")]
    if args.model in ("quadratic", "quadratic_normal"):
        _require(args.a_matrix is not None and args.b_vector is not None,
                 "quadratic model requires --A and --b")
        params["a_matrix"] = _parse_matrix(args.a_matrix)
        params["b"] = [float(v) for v in args.b_vector.split(",")]
    return make_builtin(args.model, **params)


# Each _check_* turns one command's flags into the values its cmd_* reads and
# rejects, before any sampling, a value no estimator or check could use.
def _check_shared(args) -> None:
    _require(0 <= args.seed < 2**64,
             f"--seed must fit in an unsigned 64-bit word, got {args.seed}")
    _require(0.0 <= args.slope_window < 0.9,
             f"--slope-window must lie in [0, 0.9), got {args.slope_window:g}")


def _check_sampling(args, model) -> None:
    """``--n``, ``--h``, ``--m`` and ``--threshold``, read by analyze and bounds."""
    if args.n is None:
        args.n = 10_000
    _require(args.n >= 1, f"--n must be at least 1, got {args.n}")
    _require(0.0 < args.h < math.inf, f"--h must lie in (0, inf), got {args.h:g}")
    args.m = None if args.m in (None, "auto") else int(args.m)
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
    _require(args.m1 is None or args.n == args.m1 * args.m2,
             "when m1 and m2 are given, n must equal m1*m2")


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
    sizes = tuple(int(t) for t in args.sizes.split(",") if t.strip())
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
    quadratic = model.family == "quadratic_normal"
    unit_cube = bounds_mod.is_unit_cube(model)
    bounded = model.output_range is not None
    stats = bounds_mod.batch_statistics(
        model, n_batch, RngStream(args.seed), gas=quadratic or unit_cube or bounded,
        gradients=model.differentiable, h=args.h, slope_window=args.slope_window)
    checks = [bounds_mod.quadratic_identity(stats)] if quadratic else []
    if unit_cube:
        for m in (args.m,) if args.m else (1, model.d):
            checks.append(bounds_mod.gas_bound_uniform(stats, m))
    if bounded:
        checks.append(bounds_mod.gas_bound_general(stats, args.epsilon, model.d))
    checks.extend(bounds_mod.dgsm_bounds(stats, threshold=args.threshold))
    payload = {
        "meta": {"model": model.label, "seed": args.seed, "n_per_batch": n_batch,
                 "epsilon": args.epsilon},
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
    tables = [convergence_study(model, method, args.sizes, args.seeds, reference,
                                base_seed=args.seed, slope_window=args.slope_window)
              for name, method in (("sobol", "upper_sobol"), ("gas", "gas_scores"))
              if name in args.methods]
    out = Path(args.out if args.out else f"{args.model}_convergence.json")
    payload = {"tables": [output.convergence_to_dict(t) for t in tables]}
    output.write_text(out, output.dumps_json(payload) + "\n")
    svg_path = out.with_suffix(".svg")
    output.write_text(svg_path, svgplot.convergence_chart(tables))
    print(f"wrote {out} and {svg_path}")
    return 0


def cmd_plot(args) -> int:
    import json

    path = Path(args.report)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        report = output.report_from_dict(data)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print(f"error: cannot parse report {path}: {exc}", file=sys.stderr)
        return 1
    builder = {"bars": svgplot.bars_chart, "spectrum": svgplot.spectrum_chart,
               "eigvec": svgplot.eigvec_chart}[args.kind]
    try:
        svg = builder(report)
    except SensynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out if args.out else path.with_suffix(f".{args.kind}.svg"))
    output.write_text(out, svg)
    print(f"wrote {out}")
    return 0


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", required=True, help="built-in model name")
    shared.add_argument("--noise", "-k", type=float, default=None,
                        help="noise scale for example1 (default 0)")
    shared.add_argument("--theta", default=None,
                        help="comma list overriding example2's ridge direction")
    shared.add_argument("--c", default=None, help="comma list of coefficients")
    shared.add_argument("--c12", type=float, default=None,
                        help="interaction coefficient for example4")
    shared.add_argument("--A", dest="a_matrix", default=None,
                        help="quadratic matrix: 'diag:2,0' or 'a,b;c,d'")
    shared.add_argument("--b", dest="b_vector", default=None,
                        help="comma list: quadratic linear term")
    shared.add_argument("--seed", type=int, default=None, help="RNG seed")
    shared.add_argument("--out", default=None, help="output path")
    shared.add_argument("--slope-window", type=float, default=DEFAULT_SLOPE_WINDOW,
                        help="minimum pair separation, as a fraction of the "
                             "marginal scale, in slope-matrix sampling")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--n", type=int, default=None,
                          help="sample size (default 10000)")
    sampling.add_argument("--h", type=float, default=1e-3,
                          help="forward-difference increment")
    sampling.add_argument("--m", default=None, help="subspace rank: integer or 'auto'")
    sampling.add_argument("--threshold", type=float, default=0.9,
                          help="cumulative-eigenvalue cutoff for the auto rank")

    methods = argparse.ArgumentParser(add_help=False)
    methods.add_argument("--methods", default="all",
                         help="comma list from sobol,dgsm,as,gas or 'all'")

    parser = argparse.ArgumentParser(
        prog="sensyn",
        description="Global sensitivity analysis on built-in benchmark models")
    sub = parser.add_subparsers(dest="command", required=True)
    # no abbreviations: convergence would otherwise read --n as --noise
    analyze = sub.add_parser("analyze", parents=[shared, methods, sampling],
                             allow_abbrev=False, help="estimate sensitivity measures")
    analyze.add_argument("--m1", type=int, default=None,
                         help="outer sample count of the slope matrix")
    analyze.add_argument("--m2", type=int, default=1,
                         help="freeze vectors per outer sample")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    bounds = sub.add_parser("bounds", parents=[shared, sampling], allow_abbrev=False,
                            help="verify the measure inequalities")
    bounds.add_argument("--epsilon", type=float, default=0.01,
                        help="tail probability of the bounded-model bound")
    convergence = sub.add_parser("convergence", parents=[shared, methods],
                                 allow_abbrev=False,
                                 help="ranking agreement vs sample size")
    convergence.add_argument("--sizes", default="10,100,1000,10000",
                             help="comma list of increasing sample sizes")
    convergence.add_argument("--seeds", type=int, default=20, help="seed count")

    plot = sub.add_parser("plot", allow_abbrev=False,
                          help="render a saved report as SVG")
    plot.add_argument("report", help="path of a JSON report")
    plot.add_argument("--kind", choices=("bars", "spectrum", "eigvec"),
                      default="bars")
    plot.add_argument("--out", default=None)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # reported by the subcommand, whose usage lists the flags it takes
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command == "plot":
        return cmd_plot(args)
    check, run = {"analyze": (_check_analyze, cmd_analyze),
                  "bounds": (_check_bounds, cmd_bounds),
                  "convergence": (_check_convergence, cmd_convergence)}[args.command]

    # configuration / model construction problems are usage errors
    try:
        if args.seed is None:
            args.seed = _default_seed()
        _check_shared(args)
        model = _model_from_args(args)
        check(args, model)
    except (InputDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(args, model)
    except SensynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
