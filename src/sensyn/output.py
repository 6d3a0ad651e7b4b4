"""Deterministic JSON and CSV serialization of reports and bound checks.

Floats are written with 17 significant digits, which round-trips every
double exactly; key order is fixed by construction and no timestamps are
emitted, so byte-identical reruns are a hard guarantee rather than an
accident.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import BoundCheck
from .errors import InputDomainError
from .report import ConvergenceTable, SensitivityReport


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputDomainError("refusing to serialize a non-finite number")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


# JSON string escapes: quote, backslash and every control character U+0000-U+001F
_JSON_ESCAPES = str.maketrans(
    {chr(i): f"\\u{i:04x}" for i in range(0x20)}
    | {"\n": "\\n", "\r": "\\r", "\t": "\\t", '"': '\\"', "\\": "\\\\"})


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/scalar data with fixed float formatting."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{obj.translate(_JSON_ESCAPES)}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + dumps_json(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            items.append(pad + "  " + dumps_json(str(key)) + ": "
                         + dumps_json(value, indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise InputDomainError(f"cannot serialize value of type {type(obj).__name__}")


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _opt(value):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def report_to_dict(report: SensitivityReport) -> dict:
    """JSON layout of a report: metadata, per-method scores, spectra."""
    meta = {
        "model": report.model_label,
        "d": report.d,
        "seed": report.seed,
        "n": report.n,
        "m1": report.m1,
        "m2": report.m2,
        "h": report.h,
        "noise_scale": report.noise_scale,
        "threshold": report.threshold,
        "methods": list(report.methods),
    }
    scores = {
        "sigma2_hat": _opt(report.sigma2_hat),
        "sobol_lower": _opt(report.sobol_lower),
        "sobol_upper": _opt(report.sobol_upper),
        "dgsm_raw": _opt(report.dgsm_raw),
        "dgsm_normalized": _opt(report.dgsm_normalized),
        "as_scores_m": _opt(report.as_scores_m),
        "as_scores_full": _opt(report.as_scores_full),
        "as_scores_m_normalized": _opt(report.as_scores_m_normalized),
        "as_scores_full_normalized": _opt(report.as_scores_full_normalized),
        "gas_scores_m": _opt(report.gas_scores_m),
        "gas_scores_full": _opt(report.gas_scores_full),
        "gas_scores_m_normalized": _opt(report.gas_scores_m_normalized),
        "gas_scores_full_normalized": _opt(report.gas_scores_full_normalized),
    }
    spectra = {
        "as_eigenvalues": _opt(report.as_eigenvalues),
        "as_cumulative": _opt(report.as_cumulative),
        "as_first_eigenvector": _opt(report.as_first_eigenvector),
        "m_as": _opt(report.m_as),
        "gas_eigenvalues": _opt(report.gas_eigenvalues),
        "gas_cumulative": _opt(report.gas_cumulative),
        "gas_first_eigenvector": _opt(report.gas_first_eigenvector),
        "m_gas": _opt(report.m_gas),
        "u1_alignment": _opt(report.u1_alignment),
        "reference_direction": _opt(report.reference_direction),
    }
    return {"meta": meta, "scores": scores, "spectra": spectra}


def report_from_dict(data: dict) -> SensitivityReport:
    meta = data["meta"]
    scores = data["scores"]
    spectra = data["spectra"]

    def arr(value):
        return None if value is None else np.asarray(value, dtype=np.float64)

    return SensitivityReport(
        model_label=meta["model"], d=int(meta["d"]), seed=int(meta["seed"]),
        n=int(meta["n"]), m1=int(meta["m1"]), m2=int(meta["m2"]),
        h=float(meta["h"]), noise_scale=float(meta["noise_scale"]),
        threshold=float(meta["threshold"]), methods=tuple(meta["methods"]),
        sigma2_hat=scores["sigma2_hat"],
        sobol_lower=arr(scores["sobol_lower"]),
        sobol_upper=arr(scores["sobol_upper"]),
        dgsm_raw=arr(scores["dgsm_raw"]),
        dgsm_normalized=arr(scores["dgsm_normalized"]),
        as_eigenvalues=arr(spectra["as_eigenvalues"]),
        as_cumulative=arr(spectra["as_cumulative"]),
        as_first_eigenvector=arr(spectra["as_first_eigenvector"]),
        m_as=None if spectra["m_as"] is None else int(spectra["m_as"]),
        as_scores_m=arr(scores["as_scores_m"]),
        as_scores_full=arr(scores["as_scores_full"]),
        as_scores_m_normalized=arr(scores["as_scores_m_normalized"]),
        as_scores_full_normalized=arr(scores["as_scores_full_normalized"]),
        gas_eigenvalues=arr(spectra["gas_eigenvalues"]),
        gas_cumulative=arr(spectra["gas_cumulative"]),
        gas_first_eigenvector=arr(spectra["gas_first_eigenvector"]),
        m_gas=None if spectra["m_gas"] is None else int(spectra["m_gas"]),
        gas_scores_m=arr(scores["gas_scores_m"]),
        gas_scores_full=arr(scores["gas_scores_full"]),
        gas_scores_m_normalized=arr(scores["gas_scores_m_normalized"]),
        gas_scores_full_normalized=arr(scores["gas_scores_full_normalized"]),
        u1_alignment=spectra["u1_alignment"],
        reference_direction=arr(spectra["reference_direction"]),
    )


# CSV layout: one row per input; first the index and the analytic variance
# share when available, then one column per method value (raw), then one per
# normalized method value.
_RAW_COLUMNS = (
    ("sobol_lower", "sobol_lower"),
    ("sobol_upper", "sobol_upper"),
    ("dgsm", "dgsm_raw"),
    ("as_m", "as_scores_m"),
    ("as_full", "as_scores_full"),
    ("gas_m", "gas_scores_m"),
    ("gas_full", "gas_scores_full"),
)
_NORM_COLUMNS = (
    ("dgsm_norm", "dgsm_normalized"),
    ("as_m_norm", "as_scores_m_normalized"),
    ("as_full_norm", "as_scores_full_normalized"),
    ("gas_m_norm", "gas_scores_m_normalized"),
    ("gas_full_norm", "gas_scores_full_normalized"),
)


def report_to_csv(report: SensitivityReport, sigma2_share=None) -> str:
    """Fixed-layout CSV of per-input scores (raw then normalized columns)."""
    header = ["input_index", "sigma2_share"]
    columns = []
    for name, attr in _RAW_COLUMNS + _NORM_COLUMNS:
        values = getattr(report, attr)
        if values is not None:
            header.append(name)
            columns.append(np.asarray(values))
    lines = [",".join(header)]
    for i in range(report.d):
        share = "" if sigma2_share is None else format_float(float(sigma2_share[i]))
        row = [str(i + 1), share]
        row.extend(format_float(float(col[i])) for col in columns)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def bound_check_to_dict(check: BoundCheck) -> dict:
    if check.skipped_reason is not None:
        return {"name": check.name, "skipped": check.skipped_reason}
    return {
        "name": check.name,
        "lhs": check.lhs.tolist(),
        "rhs": check.rhs.tolist(),
        "slack": check.slack.tolist(),
        "tolerance": check.tolerance.tolist(),
        "passed": [bool(p) for p in check.passed],
        "all_passed": check.all_passed,
        "details": {k: _opt(v) for k, v in check.details.items()},
    }


def convergence_to_dict(table: ConvergenceTable) -> dict:
    cells = []
    for (size, seed_idx), perm in table.ranks.items():
        cells.append({"size": size, "seed_index": seed_idx,
                      "rank": [int(r) for r in perm],
                      "scores": table.score_vectors[(size, seed_idx)].tolist()})
    return {
        "meta": {"model": table.model_label, "method": table.method,
                 "sizes": list(table.sizes), "n_seeds": table.n_seeds,
                 "reference": [int(r) for r in table.reference]},
        "mean_scores": table.mean_scores.tolist(),
        "full_match_fraction": table.full_match_fraction.tolist(),
        "top3_match_fraction": table.top3_match_fraction.tolist(),
        "cells": cells,
    }
