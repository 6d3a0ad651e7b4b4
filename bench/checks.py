"""Output checks behind the benchmark's ``failed`` count and ``sobol_err``.

A command fails when it exits non-zero, when a file it writes does not parse
as JSON, CSV or SVG, when a non-skipped bound check did not pass, or when its
bytes differ from the first pass.  Oracle errors are computed from the
written files, never from in-process objects.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from sensyn.models import analytic_anova, indicator_upper_sobol, make_builtin

# A gross-error gate: Monte Carlo errors at the workloads' sample sizes stay
# far below it, a wrong index order, scale or estimator does not.
SOBOL_TOLERANCE = 0.1

# bound checks whose lhs is the (batch-mean) upper Sobol' index vector
_UPPER_LHS_CHECKS = ("gas_bound_uniform", "gas_bound_general",
                     "dgsm_bound_unit_cube", "dgsm_bound_general",
                     "as_score_bound_unit_cube", "as_score_bound_general")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _oracle(cmd) -> np.ndarray:
    if cmd.model == "example2":
        direction = cmd.params.get("direction")
        if direction is None:
            direction = make_builtin("example2").reference_direction
        return indicator_upper_sobol(direction)
    params = dict(cmd.params)
    if cmd.model == "quadratic":
        params["a_matrix"] = np.asarray(params["a_matrix"], dtype=np.float64)
    return analytic_anova(make_builtin(cmd.model, **params)).upper


def _upper_estimates(path: Path) -> list[np.ndarray]:
    """Every upper Sobol' vector a written file reports; raises ValueError
    when the file does not parse, or holds a failed bound check."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".svg":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ValueError(f"{path.name}: {exc}") from None
        if not root.tag.endswith("svg"):
            raise ValueError(f"{path.name}: root element is not <svg>")
        return []
    if path.suffix == ".csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows or "sobol_upper" not in rows[0]:
            raise ValueError(f"{path.name}: no sobol_upper column")
        return [np.array([float(r["sobol_upper"]) for r in rows])]
    data = json.loads(text)
    if "bounds" in data:
        found = []
        for check in data["bounds"]:
            if "skipped" in check:
                continue
            if check["all_passed"] is not True:
                raise ValueError(f"{path.name}: bound check {check['name']} failed")
            if check["name"].split("(")[0] in _UPPER_LHS_CHECKS:
                found.append(np.asarray(check["lhs"], dtype=np.float64))
        return found
    if "scores" in data:
        upper = data["scores"]["sobol_upper"]
        return [] if upper is None else [np.asarray(upper, dtype=np.float64)]
    if "tables" not in data:
        raise ValueError(f"{path.name}: unrecognised JSON output")
    return []


def check_command(cmd, workdir: Path) -> tuple[dict[str, str], float | None]:
    """Parse and verify the files ``cmd`` wrote in ``workdir``.

    Returns the SHA-256 of each output and the largest absolute error of
    the written upper Sobol' indices against the oracle (``None`` when the
    command has no oracle).  Raises ValueError or OSError on a bad output.
    """
    hashes = {}
    err = None
    for name in cmd.outputs:
        path = workdir / name
        estimates = _upper_estimates(path)
        hashes[name] = sha256(path)
        if cmd.model is not None and estimates:
            truth = _oracle(cmd)
            worst = max(float(np.max(np.abs(e - truth))) for e in estimates)
            err = worst if err is None else max(err, worst)
    if err is not None and not err <= SOBOL_TOLERANCE:
        raise ValueError(f"{cmd.argv[0]} {cmd.model}: upper Sobol' error "
                         f"{err:.4g} exceeds {SOBOL_TOLERANCE}")
    return hashes, err
