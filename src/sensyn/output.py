"""Deterministic JSON and CSV serialization of reports and bound checks.

Floats are written with 17 significant digits, which round-trips every
double exactly; key order is fixed by construction and no timestamps are
emitted, so byte-identical reruns are a hard guarantee rather than an
accident.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .bounds import BoundCheck
from .errors import InputDomainError
from .report import (SUBSPACE_METHODS, ConvergenceTable, SensitivityReport,
                     SubspaceSummary)


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
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def _report_schema() -> tuple:
    """(section, key, method, field name, annotation) of every report value
    in output order: the ``SensitivityReport`` fields as declared, with
    ``subspaces`` expanded in place into each method's ``scores`` fields and
    then each method's ``spectra`` fields, keyed ``<method>_<field>`` and
    ``m_<method>``.  ``method`` is ``None`` for a field of the report itself."""
    slots = []
    for f in fields(SensitivityReport):
        if f.name != "subspaces":
            slots.append((f.metadata["section"], f.metadata["key"] or f.name,
                          None, f.name, f.type))
            continue
        for section in ("scores", "spectra"):
            slots.extend((section, f"m_{method}" if g.name == "m"
                           else f"{method}_{g.name}", method, g.name, g.type)
                         for method in SUBSPACE_METHODS
                         for g in fields(SubspaceSummary)
                         if g.metadata["section"] == section)
    return tuple(slots)


_SCHEMA = _report_schema()


def _walk(report: SensitivityReport):
    """(section, key, value) of every report value in output order; the
    values of a method the report did not compute are ``None``."""
    for section, key, method, name, _ in _SCHEMA:
        owner = report if method is None else report.subspaces.get(method)
        yield section, key, None if owner is None else getattr(owner, name)


def report_to_dict(report: SensitivityReport) -> dict:
    """JSON layout of a report: metadata, per-method scores, spectra."""
    out: dict = {"meta": {}, "scores": {}, "spectra": {}}
    for section, key, value in _walk(report):
        out[section][key] = _opt(value)
    return out


_SCALARS = {"str": str, "int": int, "float": float}


def _parse(value, annotation: str):
    """A JSON value as the report field declared ``annotation`` holds it."""
    if value is None:
        return None
    if "ndarray" in annotation:
        return np.asarray(value, dtype=np.float64)
    if annotation.startswith("tuple"):
        return tuple(value)
    return _SCALARS[annotation.removesuffix(" | None")](value)


def report_from_dict(data: dict) -> SensitivityReport:
    """Inverse of ``report_to_dict``."""
    values: dict = {}
    summaries: dict = {method: {} for method in SUBSPACE_METHODS}
    for section, key, method, name, annotation in _SCHEMA:
        target = values if method is None else summaries[method]
        target[name] = _parse(data[section][key], annotation)
    return SensitivityReport(**values, subspaces={
        method: SubspaceSummary(**summary)
        for method, summary in summaries.items() if summary["m"] is not None})


def _csv_column(key: str) -> str:
    """CSV column of a ``scores`` key: ``dgsm_raw`` -> ``dgsm``,
    ``<method>_scores_m_normalized`` -> ``<method>_m_norm``."""
    return (key.removesuffix("_raw").replace("_scores_", "_")
            .replace("_normalized", "_norm"))


def report_to_csv(report: SensitivityReport, sigma2_share=None) -> str:
    """Fixed-layout CSV of per-input scores: one row per input; first the
    index and the analytic variance share when available, then the per-input
    vectors of the ``scores`` section in JSON order, raw ones first and
    normalized ones second."""
    vectors = [(key, value) for section, key, value in _walk(report)
               if section == "scores" and np.ndim(value) == 1]
    columns = sorted(vectors, key=lambda kv: kv[0].endswith("_normalized"))
    header = ["input_index", "sigma2_share"] + [_csv_column(k) for k, _ in columns]
    lines = [",".join(header)]
    for i in range(report.d):
        share = "" if sigma2_share is None else format_float(float(sigma2_share[i]))
        row = [str(i + 1), share]
        row.extend(format_float(float(col[i])) for _, col in columns)
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
