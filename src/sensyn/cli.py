"""Command-line front end: analyses, bound checks, convergence studies, plots.

Exit codes: 0 on success, 1 on a runtime/estimation failure, 2 on a usage
error.  The seed defaults to the ``SENSYN_SEED`` environment variable, then
to 0; with a fixed seed every command writes byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
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
from .report import build_report, convergence_study, rank
from .subspace import DEFAULT_SLOPE_WINDOW
from .variance import upper_sobol  # noqa: F401  (bench/test_counts.py looks it up here)

_METHOD_ALIASES = {
    "sobol": "sobol", "dgsm": "dgsm", "as": "as", "gas": "gas",
    "activity": "as", "gas_scores": "gas", "upper_sobol": "sobol",
}


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    model_name: str
    model_params: dict = field(default_factory=dict)
    methods: tuple[str, ...] = ("sobol", "dgsm", "as", "gas")
    n: int = 10_000
    m1: int | None = None
    m2: int = 1
    h: float = 1e-3
    m_override: int | None = None
    threshold: float = 0.9
    epsilon: float = 0.01
    seed: int = 0
    sizes: tuple[int, ...] = (10, 100, 1000, 10_000)
    n_seeds: int = 20
    out: str | None = None
    fmt: str = "json"
    slope_window: float = DEFAULT_SLOPE_WINDOW

    def __post_init__(self):
        if self.m1 is not None and self.n != self.m1 * self.m2:
            raise InputDomainError("when m1 and m2 are given, n must equal m1*m2")
        if min(self.sizes) < 2:
            raise InputDomainError(
                f"every --sizes entry must be at least 2, got {min(self.sizes)}")
        if self.n_seeds < 1:
            raise InputDomainError(f"--seeds must be at least 1, got {self.n_seeds}")


def _parse_methods(spec: str) -> tuple[str, ...]:
    if spec == "all":
        return ("sobol", "dgsm", "as", "gas")
    out = []
    for token in spec.split(","):
        token = token.strip().lower()
        if token not in _METHOD_ALIASES:
            raise InputDomainError(
                f"unknown method {token!r}; choose from sobol,dgsm,as,gas or 'all'")
        name = _METHOD_ALIASES[token]
        if name not in out:
            out.append(name)
    return tuple(out)


def _parse_matrix(spec: str) -> np.ndarray:
    """Matrix syntax: ``diag:a,b,...`` or semicolon-separated rows ``a,b;c,d``."""
    if spec.startswith("diag:"):
        return np.diag([float(v) for v in spec[5:].split(",")])
    rows = [[float(v) for v in row.split(",")] for row in spec.split(";")]
    return np.asarray(rows, dtype=np.float64)


def _default_seed() -> int:
    env = os.environ.get("SENSYN_SEED")
    return int(env) if env else 0


def _model_from_config(cfg: RunConfig):
    name = cfg.model_name
    if name not in set(builtin_names()) | {"quadratic"}:
        raise InputDomainError(
            f"unknown model {name!r}; choose from {builtin_names()}")
    return make_builtin(name, **cfg.model_params)


# the model flags (argparse dest and spelling) and the built-ins that take them
_MODEL_FLAGS = {
    "noise": ("--noise", ("example1",)),
    "theta": ("--theta", ("example2",)),
    "c": ("--c", ("example4", "linear")),
    "c12": ("--c12", ("example4",)),
    "a_matrix": ("--A", ("quadratic", "quadratic_normal")),
    "b_vector": ("--b", ("quadratic", "quadratic_normal")),
}


def _collect_model_params(args) -> dict:
    if args.model in set(builtin_names()) | {"quadratic"}:
        ignored = [flag for dest, (flag, models) in _MODEL_FLAGS.items()
                   if getattr(args, dest) is not None and args.model not in models]
        if ignored:
            raise InputDomainError(
                f"model {args.model!r} does not take {', '.join(ignored)}")
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
        if not args.c:
            raise InputDomainError("linear model requires --c coefficients")
        params["coefficients"] = [float(v) for v in args.c.split(",")]
    if args.model in ("quadratic", "quadratic_normal"):
        if args.a_matrix is None or args.b_vector is None:
            raise InputDomainError("quadratic model requires --A and --b")
        params["a_matrix"] = _parse_matrix(args.a_matrix)
        params["b"] = [float(v) for v in args.b_vector.split(",")]
    return params


def _config_from_args(args) -> RunConfig:
    methods = _parse_methods(args.methods)
    m_override = None
    if args.m is not None and args.m != "auto":
        m_override = int(args.m)
    n = args.n
    m1 = args.m1
    if m1 is not None and n is None:
        n = m1 * args.m2
    if n is None:
        n = 10_000
    if args.sizes is None:
        sizes = (10, 100, 1000, 10_000)
    else:
        tokens = [t for t in args.sizes.split(",") if t.strip()]
        if not tokens:
            raise InputDomainError("need a nonempty --sizes list")
        sizes = tuple(int(t) for t in tokens)
    return RunConfig(
        model_name=args.model, model_params=_collect_model_params(args),
        methods=methods, n=n, m1=m1, m2=args.m2, h=args.h,
        m_override=m_override, threshold=args.threshold,
        epsilon=args.epsilon, seed=args.seed, sizes=sizes,
        n_seeds=args.seeds, out=args.out, fmt=args.format,
        slope_window=args.slope_window)


def _check_against_model(cfg: RunConfig, model) -> None:
    """Reject a rank, tail probability, slope window or increment no
    estimator or check could use, before any sampling."""
    if cfg.m_override is not None and not 1 <= cfg.m_override <= model.d:
        raise InputDomainError(f"--m must lie in 1..{model.d} for model "
                               f"{model.label!r}, got {cfg.m_override}")
    if not 0.0 < cfg.epsilon < 0.5:
        raise InputDomainError(f"--epsilon must lie in (0, 0.5), got {cfg.epsilon:g}")
    if not 0.0 <= cfg.slope_window < 0.9:
        raise InputDomainError(
            f"--slope-window must lie in [0, 0.9), got {cfg.slope_window:g}")
    if not 0.0 < cfg.h < math.inf:
        raise InputDomainError(f"--h must lie in (0, inf), got {cfg.h:g}")


def cmd_analyze(cfg: RunConfig, model) -> int:
    report = build_report(
        model, seed=cfg.seed, methods=cfg.methods, n=cfg.n, m1=cfg.m1,
        m2=cfg.m2, h=cfg.h, threshold=cfg.threshold,
        m_override=cfg.m_override, slope_window=cfg.slope_window)
    out = Path(cfg.out if cfg.out else f"{cfg.model_name}_report.{cfg.fmt}")
    if cfg.fmt == "json":
        output.write_text(out, output.dumps_json(output.report_to_dict(report)) + "\n")
    else:
        oracle = analytic_anova(model)
        share = None
        if oracle is not None:
            share = [oracle.upper[i] for i in range(model.d)]
        output.write_text(out, output.report_to_csv(report, sigma2_share=share))
    print(f"wrote {out}")
    return 0


def cmd_bounds(cfg: RunConfig, model) -> int:
    n_batch = max(cfg.n // bounds_mod.N_BATCHES, 2)
    quadratic = model.family == "quadratic_normal"
    unit_cube = bounds_mod.is_unit_cube(model)
    bounded = model.output_range is not None
    stats = bounds_mod.batch_statistics(
        model, n_batch, RngStream(cfg.seed), gas=quadratic or unit_cube or bounded,
        gradients=model.differentiable, h=cfg.h, slope_window=cfg.slope_window)
    checks = [bounds_mod.quadratic_identity(stats)] if quadratic else []
    if unit_cube:
        for m in (cfg.m_override,) if cfg.m_override else (1, model.d):
            checks.append(bounds_mod.gas_bound_uniform(stats, m))
    if bounded:
        checks.append(bounds_mod.gas_bound_general(stats, cfg.epsilon, model.d))
    checks.extend(bounds_mod.dgsm_bounds(stats, threshold=cfg.threshold))
    payload = {
        "meta": {"model": model.label, "seed": cfg.seed, "n_per_batch": n_batch,
                 "epsilon": cfg.epsilon},
        "bounds": [output.bound_check_to_dict(c) for c in checks],
    }
    out = Path(cfg.out if cfg.out else f"{cfg.model_name}_bounds.json")
    output.write_text(out, output.dumps_json(payload) + "\n")
    done = [c for c in checks if c.skipped_reason is None]
    print(f"wrote {out} ({sum(c.all_passed for c in done)}/{len(done)} checks passed,"
          f" {len(checks) - len(done)} skipped)")
    return 0 if all(c.all_passed for c in done) else 1


def cmd_convergence(cfg: RunConfig, model) -> int:
    oracle = analytic_anova(model)
    if oracle is not None:
        reference = rank(oracle.upper)
    else:  # every other built-in is example2, whose ridge gives exact indices
        reference = rank(indicator_upper_sobol(model.reference_direction))
    tables = []
    for method in ("upper_sobol", "gas_scores"):
        wanted = ("sobol" in cfg.methods and method == "upper_sobol") or \
                 ("gas" in cfg.methods and method == "gas_scores")
        if wanted:
            tables.append(convergence_study(
                model, method, cfg.sizes, cfg.n_seeds, reference,
                base_seed=cfg.seed, slope_window=cfg.slope_window))
    if not tables:
        raise InputDomainError("convergence needs the sobol and/or gas methods")
    out = Path(cfg.out if cfg.out else f"{cfg.model_name}_convergence.json")
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


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--model", required=True, help="built-in model name")
    parser.add_argument("--noise", "-k", type=float, default=None,
                        help="noise scale for example1 (default 0)")
    parser.add_argument("--theta", default=None,
                        help="comma list overriding example2's ridge direction")
    parser.add_argument("--c", default=None, help="comma list of coefficients")
    parser.add_argument("--c12", type=float, default=None,
                        help="interaction coefficient for example4")
    parser.add_argument("--A", dest="a_matrix", default=None,
                        help="quadratic matrix: 'diag:2,0' or 'a,b;c,d'")
    parser.add_argument("--b", dest="b_vector", default=None,
                        help="comma list: quadratic linear term")
    parser.add_argument("--methods", default="all",
                        help="comma list from sobol,dgsm,as,gas or 'all'")
    parser.add_argument("--n", type=int, default=None, help="sample size")
    parser.add_argument("--m1", type=int, default=None,
                        help="outer sample count of the slope matrix")
    parser.add_argument("--m2", type=int, default=1,
                        help="freeze vectors per outer sample")
    parser.add_argument("--h", type=float, default=1e-3,
                        help="forward-difference increment")
    parser.add_argument("--m", default=None,
                        help="subspace rank: integer or 'auto'")
    parser.add_argument("--threshold", type=float, default=0.9,
                        help="cumulative-eigenvalue cutoff for the auto rank")
    parser.add_argument("--epsilon", type=float, default=0.01,
                        help="tail probability of the bounded-model bound")
    parser.add_argument("--slope-window", type=float, default=DEFAULT_SLOPE_WINDOW,
                        help="minimum pair separation, as a fraction of the "
                             "marginal scale, in slope-matrix sampling")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed")
    parser.add_argument("--sizes", default=None,
                        help="comma list of sample sizes for convergence")
    parser.add_argument("--seeds", type=int, default=20,
                        help="seed count for convergence")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument("--format", choices=formats, default="json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sensyn",
        description="Global sensitivity analysis on built-in benchmark models")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command accepts only the formats it writes (svg comes from plot)
    for name, help_text, formats in (
            ("analyze", "estimate sensitivity measures", ("json", "csv")),
            ("bounds", "verify the measure inequalities", ("json",)),
            ("convergence", "ranking agreement vs sample size", ("json",))):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, formats)

    plot = sub.add_parser("plot", help="render a saved report as SVG")
    plot.add_argument("report", help="path of a JSON report")
    plot.add_argument("--kind", choices=("bars", "spectrum", "eigvec"),
                      default="bars")
    plot.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "plot":
        return cmd_plot(args)

    # configuration / model construction problems are usage errors
    try:
        if args.seed is None:
            args.seed = _default_seed()
        cfg = _config_from_args(args)
        model = _model_from_config(cfg)
        _check_against_model(cfg, model)
    except (InputDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "analyze":
            return cmd_analyze(cfg, model)
        if args.command == "bounds":
            return cmd_bounds(cfg, model)
        return cmd_convergence(cfg, model)
    except SensynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

