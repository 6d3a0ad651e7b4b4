"""The command line's parser and its ``plot`` command, without numpy.

:func:`main` parses a ``sensyn`` command line.  ``plot`` runs here: it reads
a JSON report and writes an SVG chart through :mod:`sensyn.output` and
:mod:`sensyn.svgplot`, so it loads neither numpy nor any estimator.  The
other commands hand their parsed arguments to :func:`sensyn.cli.run`,
whose import loads the estimators.  See :mod:`sensyn.cli` for the flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import output, svgplot
from .errors import SensynError


def cmd_plot(args) -> int:
    import json

    path = Path(args.report)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        report = output.report_from_dict(data)
    except (OSError, ValueError) as exc:
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
    shared.add_argument("--slope-window", type=float, default=None,
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
    """Run one ``sensyn`` command line; returns its exit code."""
    parser, commands = _parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # reported by the subcommand, whose usage lists the flags it takes
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command == "plot":
        return cmd_plot(args)
    from .cli import run

    return run(args)
