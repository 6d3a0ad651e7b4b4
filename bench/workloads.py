"""Benchmark workloads: the CLI commands of one pass, generated from a seed.

A workload seed fixes every CLI ``--seed`` and every generated input (the
ridge direction theta, the quadratic's A and b), so two runs with the same
seed give byte-identical commands.  Each pass repeats the same commands;
their outputs must therefore be byte-identical from pass to pass.

Sample sizes are kept small so that one pass stays near two to four
seconds and a run of a few tens of seconds holds enough passes; each
workload still has the cost profile it exists for (see ``WHY``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WHY = {
    "uniform-analyze":
        "large n, d=10 and 4, uniform inputs: estimator assembly, eval_fn and "
        "uniforms dominate; no normal draws and a tiny sym_eig (control)",
    "bounds-all":
        "every bound family (uniform, general, quadratic identity, DGSM) and "
        "their per-check 10-batch loops; inverse-CDF heavy on the quadratic",
    "highdim-spectrum":
        "d=100: the Jacobi sym_eig dominates; serialization and SVG of "
        "100-long vectors (analyze then plot eigvec)",
    "small-batch-convergence":
        "80 small estimator calls: per-call overhead (stream set-up, uniforms "
        "calls, noise normals); the only convergence_study/chart user",
}


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy.

    ``outputs`` are the files the command writes, relative to the pass
    directory.  ``model`` names the built-in (with ``params``) whose oracle
    the written Sobol' indices are checked against, or ``None`` where no
    oracle applies (noisy models, plots).
    """

    argv: list[str]
    outputs: list[str]
    model: str | None = None
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _vec(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _unit_vector(rng: random.Random, d: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _symmetric(rng: random.Random, d: int) -> list[list[float]]:
    a = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            a[i][j] = a[j][i] = round(rng.uniform(-1.0, 1.0), 3)
    return a


def commands(name: str, seed: int) -> list[Command]:
    """The commands of one pass of workload ``name`` under workload ``seed``."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    rng = random.Random(f"{name}:{seed}")

    def cli_seed() -> list[str]:
        return ["--seed", str(rng.randrange(1 << 31))]

    if name == "uniform-analyze":
        return [
            Command(["analyze", "--model", "example1", "--n", "50000",
                     *cli_seed(), "--out", "example1.json"],
                    ["example1.json"], "example1"),
            Command(["analyze", "--model", "example4", "--n", "50000",
                     "--format", "csv", *cli_seed(), "--out", "example4.csv"],
                    ["example4.csv"], "example4"),
        ]
    if name == "bounds-all":
        a = _symmetric(rng, 3)
        b = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(3)]
        a_spec = ";".join(_vec(row) for row in a)
        return [
            Command(["bounds", "--model", "example4", "--n", "10000",
                     *cli_seed(), "--out", "example4.json"],
                    ["example4.json"], "example4"),
            Command(["bounds", "--model", "quadratic", f"--A={a_spec}",
                     f"--b={_vec(b)}", "--n", "50000", *cli_seed(),
                     "--out", "quadratic.json"],
                    ["quadratic.json"], "quadratic",
                    {"a_matrix": a, "b": b}),
            Command(["bounds", "--model", "example2", "--n", "20000",
                     *cli_seed(), "--out", "example2.json"],
                    ["example2.json"], "example2"),
        ]
    if name == "highdim-spectrum":
        theta = _unit_vector(rng, 100)
        return [
            Command(["analyze", "--model", "example2", f"--theta={_vec(theta)}",
                     "--methods", "sobol,gas", "--n", "1000", *cli_seed(),
                     "--out", "example2.json"],
                    ["example2.json"], "example2", {"direction": theta}),
            Command(["plot", "example2.json", "--kind", "eigvec",
                     "--out", "eigvec.svg"],
                    ["eigvec.svg"]),
        ]
    # small-batch-convergence
    return [
        Command(["convergence", "--model", "example1", "--noise", "1",
                 "--sizes", "10,100,1000,2000", "--seeds", "20", *cli_seed(),
                 "--out", "convergence.json"],
                ["convergence.json", "convergence.svg"]),
    ]
