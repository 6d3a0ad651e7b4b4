"""Calibrate the verdicts of ``sensyn bounds``: how often each check fails
on correct code, and how often it catches an injected defect.

A verdict is a one-sided batch-means t-test (see :mod:`sensyn.bounds`).
This script runs the check families of ``sensyn bounds``, as
:func:`sensyn.bounds.applicable_checks` picks them for each model, on the
batches of :func:`sensyn.bounds.batch_statistics` over many seeds.  For
each family it reports the false-fail rate of the correct code, the
detection rate under each defect, the 99 % quantile over seeds of the
largest per-input ``-slack / SE`` (how near correct code comes to the 5-SE
gate), and the correlation between the per-batch lhs and rhs of each input
(the combined error ``sqrt(se_lhs**2 + se_rhs**2)`` is conservative where
it is non-negative).  Defects are injected here, by wrapping or replacing
functions of the package for the duration of one run:

* ``c_gas x (1 + delta)``: every batch's slope matrix scaled;
* ``spill dropped``: the ``lambda_{m+1}`` term left out of the scores;
* ``Cheeger / 4``: the distribution constant without its factor 4;
* ``shifted base``: the upper indices pair each freeze output with the base
  output of the next row, so each estimates 1.

A sigma2 bias needs no scenario: sigma2 divides both sides of every check
and normalizes the upper indices, so it cancels from every verdict
(``tests/test_bounds.py::TestSharedDesign`` pins that).

Run from the repository root (two worker processes; at the defaults, about
9 minutes on a 2-vCPU Xeon VM)::

    PYTHONPATH=src python scripts/calibrate_bounds.py --jobs 2 --json calibration.json

Nothing here is part of the test suite or the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import sys

import numpy as np

from sensyn import bounds, subspace, variance
from sensyn.bounds import SE_MULTIPLE, BatchStatistics
from sensyn.models import (Model, make_example2, make_example4,
                           make_quadratic_normal)
from sensyn.randkit import RngStream, Uniform

# the quadratic of the detection test in tests/test_bounds.py
QUAD_A = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 0.5]]
QUAD_B = [0.2, -0.4, 0.1]


def make_off_axis() -> Model:
    """``5 x1 + 4 (x2 - 1/2)**2`` on the unit square: the second input sits
    off the leading slope eigenvector, so only the spill term covers its
    index at m = 1 (on example4 every input loads on the first one)."""
    return Model(label="off_axis", family="off_axis",
                 marginals=(Uniform(0.0, 1.0), Uniform(0.0, 1.0)),
                 eval_fn=lambda x: 5.0 * x[:, 0] + 4.0 * (x[:, 1] - 0.5) ** 2)


# (label, model factory, rows per batch); each is run with the checks that
# ``bounds.applicable_checks`` picks for that model, as ``sensyn bounds`` does
FAMILIES = (
    ("quadratic@500", lambda: make_quadratic_normal(QUAD_A, QUAD_B), 500),
    ("quadratic@5000", lambda: make_quadratic_normal(QUAD_A, QUAD_B), 5_000),
    ("example4@1000", make_example4, 1_000),
    ("example2@2000", make_example2, 2_000),
    ("off_axis@1000", make_off_axis, 1_000),
)
DELTAS = (-0.20, -0.10, -0.05, 0.05, 0.10, 0.20)


def run_batches(model, n: int, seed: int) -> BatchStatistics:
    """One set of batches, with the statistics ``sensyn bounds`` asks for."""
    return bounds.batch_statistics(model, n, RngStream(seed),
                                   gas=bounds.needs_slope_matrix(model),
                                   gradients=model.differentiable)


def run_checks(stats: BatchStatistics) -> list:
    """The checks of ``sensyn bounds`` at its defaults, skipped ones left out."""
    checks = bounds.applicable_checks(stats, m=None, epsilon=0.01, threshold=0.9)
    return [c for c in checks if c.skipped_reason is None]


@contextlib.contextmanager
def patched(*patches):
    """Set ``(module, name, value)`` attributes for the duration of the block."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, value in patches:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)


def _scaled(fn, factor):
    return lambda *args, **kwargs: factor * fn(*args, **kwargs)


def _shifted_upper(fz, fv, sigma2):
    return np.mean((fz - np.roll(fv, 1)) ** 2) / (2.0 * sigma2)


def check_defects() -> dict:
    """Defects in the checks: they re-read the correct code's batches."""
    return {"spill dropped": ((bounds, "_spilled_scores", subspace.scores),),
            "Cheeger / 4": ((bounds, "cheeger_constant",
                             _scaled(bounds.cheeger_constant, 0.25)),)}


def _verdicts(checks, baseline=None) -> dict:
    """Per check: (failed, largest per-input -slack / SE, whether either
    side differs from the ``baseline`` checks of the same batches)."""
    before = {c.name: c for c in baseline or ()}
    out = {}
    for c in checks:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(c.tolerance > 0.0, -c.slack * SE_MULTIPLE / c.tolerance,
                         np.where(c.slack < 0.0, np.inf, -np.inf))
        b = before.get(c.name)
        moved = b is not None and not (np.array_equal(b.lhs, c.lhs)
                                       and np.array_equal(b.rhs, c.rhs))
        out[c.name] = (not c.all_passed, float(np.max(z)), moved)
    return out


def _recorded_checks(stats):
    """The checks, with the per-batch sides of every inequality recorded."""
    rows = {}

    def recording(name, lhs_rows, rhs_rows, details=None, _fn=bounds._inequality):
        rows[name] = (np.asarray(lhs_rows), np.asarray(rhs_rows))
        return _fn(name, lhs_rows, rhs_rows, details)
    with patched((bounds, "_inequality", recording)):
        checks = run_checks(stats)
    moments = {}
    for name, (lhs, rhs) in rows.items():
        dl, dr = lhs - lhs.mean(axis=0), rhs - rhs.mean(axis=0)
        moments[name] = ((dl * dr).sum(axis=0), (dl * dl).sum(axis=0),
                         (dr * dr).sum(axis=0))
    return checks, moments


def one_seed(task):
    """Every scenario of one (family, seed)."""
    family, seed, with_engine_defects = task
    _, factory, n = next(f for f in FAMILIES if f[0] == family)
    model = factory()
    stats = run_batches(model, n, seed)
    checks, moments = _recorded_checks(stats)
    result = {"none": _verdicts(checks), "moments": moments}
    if stats.c_gas is not None:
        for delta in DELTAS:
            scaled = dataclasses.replace(
                stats, c_gas=[(1.0 + delta) * c for c in stats.c_gas])
            result[f"c_gas x {1.0 + delta:.2f}"] = _verdicts(run_checks(scaled),
                                                             checks)
    for label, patches in check_defects().items():
        with patched(*patches):
            result[label] = _verdicts(run_checks(stats), checks)
    if with_engine_defects:  # a defect inside the engine redraws the batches
        with patched((variance, "_upper", _shifted_upper)):
            result["shifted base"] = _verdicts(
                run_checks(run_batches(model, n, seed)), checks)
    return family, seed, result


def aggregate(results) -> dict:
    """Fail counts and seed counts per (family, check, scenario), the 99 %
    quantile of the largest -slack/SE on correct code, and the pooled
    within-seed correlation of the per-batch sides."""
    table: dict = {}
    for family, _seed, result in results:
        for scenario, verdicts in result.items():
            if scenario == "moments":
                for check, m in verdicts.items():
                    acc = table.setdefault(family, {}).setdefault(check, {}) \
                        .setdefault("_moments", [0, 0, 0])
                    for k in range(3):
                        acc[k] = acc[k] + m[k]
                continue
            for check, (failed, z, moved) in verdicts.items():
                cell = table.setdefault(family, {}).setdefault(check, {}) \
                    .setdefault(scenario, [0, 0, [], 0])
                cell[0] += failed
                cell[1] += 1
                cell[3] += moved
                if scenario == "none":
                    cell[2].append(z)
    out = {}
    for family, checks in table.items():
        for check, scenarios in checks.items():
            entry = out.setdefault(family, {}).setdefault(check, {})
            sxy, sxx, syy = scenarios.pop("_moments", (None, None, None))
            if sxy is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    corr = sxy / np.sqrt(sxx * syy)
                entry["lhs_rhs_correlation"] = [
                    None if not np.isfinite(c) else round(float(c), 3)
                    for c in corr]
            for scenario, (fails, seeds, zs, moved) in scenarios.items():
                entry[scenario] = {"fails": int(fails), "seeds": seeds,
                                   "moved": int(moved)}
                if zs:
                    entry[scenario]["q99_max_z"] = round(
                        float(np.quantile(zs, 0.99)), 3)
    return out


def markdown(out: dict) -> str:
    """One table per family: a row per check and scenario, with the failed
    runs.  A defect that left both sides of a check unchanged on every seed
    cannot move its verdict and gets no row."""
    lines = []
    for family, checks in out.items():
        lines.append(f"\n### {family} rows per batch\n")
        lines.append("| check | scenario | failed runs |")
        lines.append("|---|---|---|")
        for check, scenarios in checks.items():
            for scenario, cell in scenarios.items():
                if scenario == "lhs_rhs_correlation" or (
                        scenario != "none" and not cell["moved"]):
                    continue
                text = f"{cell['fails']}/{cell['seeds']}"
                if "q99_max_z" in cell:
                    text += f" (q99 z {cell['q99_max_z']:.2f})"
                lines.append(f"| {check} | {scenario} | {text} |")
            if "lhs_rhs_correlation" in scenarios:
                corr = ", ".join("-" if c is None else f"{c:.2f}"
                                 for c in scenarios["lhs_rhs_correlation"])
                lines.append(f"| {check} | corr(lhs, rhs) per input | [{corr}] |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=1_000,
                        help="seeds for the correct code and the defects in "
                             "the checks (default 1000)")
    parser.add_argument("--defect-seeds", type=int, default=200,
                        help="seeds for the defects inside the engine, each "
                             "a separate run of the batches (default 200)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--families", default=",".join(f[0] for f in FAMILIES),
                        help="comma list of families to run")
    parser.add_argument("--json", default=None, help="also write the table as JSON")
    args = parser.parse_args(argv)
    families = args.families.split(",")
    known = {f[0] for f in FAMILIES}
    if not set(families) <= known or args.jobs < 1 or args.seeds < 1 \
            or not 0 <= args.defect_seeds <= args.seeds:
        parser.error(f"families come from {sorted(known)}; --jobs and --seeds "
                     "must be positive and --defect-seeds at most --seeds")
    tasks = [(family, seed, seed < args.defect_seeds)
             for family in families for seed in range(args.seeds)]
    if args.jobs == 1:
        results = [one_seed(t) for t in tasks]
    else:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.map(one_seed, tasks, chunksize=20)
    out = aggregate(results)
    print(markdown(out))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
