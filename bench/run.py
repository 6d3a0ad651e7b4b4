#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sensyn command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ``src/``).

``--trace 0`` measures the end-to-end metrics.  One closed-loop client runs
passes of the workload's CLI commands, each a fresh ``python -m sensyn.cli``
subprocess started after the previous one exits, until ``--seconds`` have
passed; before each pass a fresh interpreter imports ``sensyn.cli`` and
exits, which samples the set-up time (``setup_s`` is their median).  Every
output is checked (exit code, parse, bound verdicts, oracle error, SHA-256
against the first pass).
Afterwards one in-process pass with the evaluation counter installed counts
the model rows of a pass and must write the same bytes.

The gated pass times are normalized: right before each command this
process times a fixed CPU task of its own (:func:`reference_task`), and
``wall_norm`` and ``cpu_norm`` are the run's total pass wall and CPU time
divided by its total reference time.  On a shared host, slow phases last
longer than a pass and change raw pass times by up to 1.7x; the ratio to a
task timed alongside cancels most of that.  The raw median, tail and
fastest pass times are printed as well.

``--trace 1`` gives the per-layer metrics.  It alternates untraced and
traced in-process passes for ``--seconds``, reports medians of the traced
layer times, exact counts, the tracing overhead and the ``probe.*`` layer
probes, and writes the spans of one traced pass to ``bench/.work/``.

Details of every run (samples, environment) are written to ``bench/.work/``;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
TAIL_BEYOND = 10  # passes that must lie beyond the reported tail percentile
HOST_NOTE = ("shared VM: host load changes raw pass times by up to 1.7x over "
             "minutes; across 5-run sets their medians spread 6-33%")

E2E_UNITS = {"wall_norm": "ratio", "cpu_norm": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB", "model_rows": "count"}


def reference_task() -> float:
    """Seconds taken by a fixed CPU task that uses nothing of this repository.

    Timed next to every pass, it tracks how fast the shared host is at that
    moment; pass times divided by it stay steady where raw pass times drift
    with the host's load.
    """
    t0 = perf_counter()
    x = np.arange(20000.0)
    for _ in range(500):
        x = np.sqrt(x * x + 1.0)
    total = 0
    for i in range(1_000_000):
        total += i
    return perf_counter() - t0


def layer_unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last in ("first_draw_ratio", "sobol_err"):
        return "ratio"
    if last in ("bytes", "bytes_in"):
        return "bytes"
    return "count"


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(AttributeError, KeyError, TypeError, ValueError):
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if got.returncode == 0:
                commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "host": HOST_NOTE,
    }


def _spawn(argv: list[str], cwd: Path, env: dict, stderr_path: Path):
    """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Outcomes:
    """Attempted/failed command counts, the reference hashes of the first
    pass and the oracle error of the written indices."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference: dict[int, dict] = {}
        self.sobol_err: float | None = None

    def record(self, index: int, cmd, code: int, workdir: Path) -> None:
        from checks import check_command

        self.attempted += 1
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            hashes, err = check_command(cmd, workdir)
            ref = self.reference.setdefault(index, hashes)
            if hashes != ref:
                raise ValueError("output bytes differ from the first pass")
            if err is not None:
                self.sobol_err = max(err, self.sobol_err or 0.0)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(cmd.argv[:3])}: {exc}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clear_outputs(cmd, workdir: Path) -> None:
    """Remove a command's outputs first, so a stale file never passes a check."""
    for name in cmd.outputs:
        (workdir / name).unlink(missing_ok=True)


def in_process_pass(cmds, workdir: Path, outcomes: Outcomes) -> float:
    """Run the pass's commands through ``sensyn.cli.main`` in this process."""
    import sensyn.cli

    workdir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(workdir)
    try:
        t0 = perf_counter()
        codes = []
        for cmd in cmds:
            clear_outputs(cmd, workdir)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(sensyn.cli.main(list(cmd.argv)))
        wall = perf_counter() - t0
    finally:
        os.chdir(here)
    for i, (cmd, code) in enumerate(zip(cmds, codes)):
        outcomes.record(i, cmd, code, workdir)
    return wall


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND
    samples beyond it; with fewer samples, the minimum (percentile 0)."""
    ordered = sorted(samples)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * k / len(ordered)


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import commands

    cmds = commands(name, seed)
    workdir = fresh_dir(WORK / name)
    env = _cli_env()
    errlog = workdir / "stderr.txt"

    def import_cli() -> float:
        code, wall, _, _ = _spawn(["-c", "import sensyn.cli"], workdir, env, errlog)
        if code != 0:
            raise RuntimeError(f"importing sensyn.cli failed: {errlog.read_text()}")
        return wall

    def run_pass() -> tuple[float, float, float, float]:
        """Wall, CPU and peak RSS of one pass, and the reference time taken
        right before each of its commands."""
        pass_wall = pass_cpu = pass_rss = pass_ref = 0.0
        codes = []
        for i, cmd in enumerate(cmds):
            clear_outputs(cmd, workdir)
            pass_ref += reference_task()
            code, wall, cpu, peak = _spawn(["-m", "sensyn.cli", *cmd.argv],
                                           workdir, env, workdir / f"stderr{i}.txt")
            codes.append(code)
            pass_wall += wall
            pass_cpu += cpu
            pass_rss = max(pass_rss, peak)
        for i, (cmd, code) in enumerate(zip(cmds, codes)):
            outcomes.record(i, cmd, code, workdir)
        return pass_wall, pass_cpu, pass_rss, pass_ref

    # the first import fills the bytecode cache and is not timed
    outcomes = Outcomes()
    import_cli()

    # the set-up (a fresh interpreter imports the CLI and exits) is sampled
    # before each pass, so it sees the host as the passes do
    ref, setup, walls, cpus, rss = [], [], [], [], []
    stop = perf_counter() + seconds
    while True:
        setup.append(import_cli())
        wall, cpu, peak, ref_time = run_pass()
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        ref.append(ref_time)
        if perf_counter() >= stop:
            break

    # one counted in-process pass: exact model rows, and the same bytes
    with Tracer() as counter:
        in_process_pass(cmds, workdir / "counted", outcomes)

    tail_value, tail_pct = tail(walls)
    return {
        "outcomes": outcomes,
        "metrics": {
            "wall_norm": sum(walls) / sum(ref),
            "cpu_norm": sum(cpus) / sum(ref),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
            "model_rows": layer_metrics(counter, 0)["models.eval.rows"],
        },
        "summary": {
            "wall_s": (statistics.median(walls), "s", "median pass"),
            "wall_s_tail": (tail_value, "s", f"p{tail_pct:.0f} of {len(walls)} passes"),
            "wall_s_best": (min(walls), "s", "fastest pass"),
            "cpu_s": (statistics.median(cpus), "s", "median pass"),
            "reference_s": (statistics.median(ref), "s",
                            "reference time per pass, median"),
        },
        "samples": {"passes": len(walls), "wall_s": walls, "cpu_s": cpus,
                    "peak_rss_mb": rss, "setup_s": setup, "reference": ref,
                    "tail_percentile": tail_pct},
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from probes import run_probes
    from tracer import Tracer, largest_self_time, layer_metrics
    from workloads import commands

    import sensyn.cli  # noqa: F401  (import is not part of any pass)
    from sensyn.models import make_builtin

    cmds = commands(name, seed)
    workdir = fresh_dir(WORK / f"{name}-trace")
    outcomes = Outcomes()
    tracer = Tracer()
    plain, traced = [], []
    stop = perf_counter() + seconds
    while True:
        plain.append(in_process_pass(cmds, workdir, outcomes))
        tracer.pass_id = len(traced)
        with tracer:
            traced.append(in_process_pass(cmds, workdir, outcomes))
        if perf_counter() >= stop:
            break

    per_pass = [layer_metrics(tracer, k) for k in range(len(traced))]
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.rsplit(".", 1)[-1] in ("s", "self_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                outcomes.failed += 1
                outcomes.reasons.append(f"count {key} differs between passes")
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["oracle.sobol_err"] = outcomes.sobol_err or 0.0

    highdim = commands("highdim-spectrum", seed)[0]
    metrics.update(run_probes(
        seed, make_builtin("example2", **highdim.params),
        int(highdim.argv[highdim.argv.index("--seed") + 1])))

    tracer.dump(WORK / f"trace-{name}-{seed}.json", 0)
    return {
        "outcomes": outcomes,
        "metrics": metrics,
        "summary": {},
        "samples": {"passes": len(traced), "traced_s": traced, "untraced_s": plain,
                    "largest_self_time": largest_self_time(tracer, 0)},
    }


def predictions(name: str, metrics: dict, largest: str) -> list[str]:
    """Verdicts of the checkable predictions that concern this workload."""
    table = json.loads((ROOT / "bench" / "predictions.json").read_text())
    lines = []
    for rule in table["checks"]:
        if name not in rule["workloads"]:
            continue
        metric = rule["metric"]
        if rule["expect"] == "zero":
            holds = metrics[metric] == 0
        else:  # largest_self_time
            holds = metric.rsplit(".", 1)[0] == largest
        lines.append(f"prediction {metric} {rule['expect']}: "
                     f"{'holds' if holds else 'DOES NOT HOLD'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensyn" / "cli.py").is_file():
        print(f"error: no sensyn sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WHY

    if args.workload not in WHY:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WHY)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    run = run_traced if args.trace else run_end_to_end
    result = run(args.workload, args.seed, args.seconds)
    outcomes: Outcomes = result["outcomes"]
    metrics = result["metrics"]
    env = environment()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['samples']['passes']} passes")
    print(f"  why: {WHY[args.workload]}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    summary = dict(result["summary"])
    summary["fail_rate"] = (outcomes.failed / max(outcomes.attempted, 1), "ratio",
                            f"{outcomes.failed} of {outcomes.attempted} commands")
    summary["sobol_err"] = (outcomes.sobol_err or 0.0, "ratio",
                            "max |upper - oracle|" if outcomes.sobol_err is not None
                            else "no oracle on this workload")
    for reason in outcomes.reasons:
        print(f"  FAILED {reason}")
    verdicts = []
    if args.trace:
        units = {key: layer_unit(key) for key in metrics}
        verdicts = predictions(args.workload, metrics,
                               result["samples"]["largest_self_time"])
    else:
        units = E2E_UNITS
    for line in verdicts:
        print(f"  {line}")
    for key, (value, unit, note) in summary.items():
        print(f"  {key:<42} {value:.6g} {unit} ({note})")
    for key, value in metrics.items():
        print(f"  {key:<42} {value:.6g} {units[key]}")

    payload = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    detail = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({**payload, "environment": env,
                                  "samples": result["samples"],
                                  "summary": summary, "predictions": verdicts,
                                  "reasons": outcomes.reasons}, indent=1) + "\n")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
