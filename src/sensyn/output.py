"""The analysis report's schema and its deterministic JSON and CSV forms.

:class:`SensitivityReport` and :class:`SubspaceSummary` declare the report:
each field's metadata names the JSON section that holds it, so the writers
and the reader walk the fields.  :class:`ConvergenceTable` holds one
convergence study.  Floats are written with 17 significant digits, which
round-trips every double exactly; key order is fixed by construction and no
timestamps are emitted, so byte-identical reruns are a hard guarantee rather
than an accident.

This module imports no numpy: ``sensyn plot`` reads a report back and
charts it without loading numpy or any estimator.  The writers take numpy
arrays and scalars by their ``tolist`` method; the reader returns each
vector as a tuple of floats.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING

from .errors import InputDomainError

if TYPE_CHECKING:
    import numpy as np

    from .bounds import BoundCheck

METHOD_NAMES = ("sobol", "dgsm", "as", "gas")
SUBSPACE_METHODS = ("as", "gas")
# version 2 added meta.schema_version and meta.slope_window
_SCHEMA_VERSION = 2

# A per-input vector: a float array in a report built in memory, a tuple of
# floats in one read back from JSON.
Vector = Sequence[float]


def _in(section: str, default=MISSING, key: str | None = None):
    """A report field written to JSON ``section`` under ``key`` (default:
    the field's own name)."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class SubspaceSummary:
    """Eigen-summary of one AS or GAS matrix: its spectrum, normalized
    cumulative eigenvalue sums, leading eigenvector u1, selected rank m, and
    the activity scores at m and at d, raw and sum-normalized (``None`` when
    the scores sum to zero)."""

    eigenvalues: Vector = _in("spectra")
    cumulative: Vector = _in("spectra")
    first_eigenvector: Vector = _in("spectra")
    m: int = _in("spectra")
    scores_m: Vector = _in("scores")
    scores_full: Vector = _in("scores")
    scores_m_normalized: Vector | None = _in("scores")
    scores_full_normalized: Vector | None = _in("scores")


@dataclass(frozen=True)
class SensitivityReport:
    """Everything one analysis run produced, ready for serialization.

    Sobol' indices are kept raw (lower and upper are compared on a common
    scale); all other measures also carry sum-normalized versions for
    display.  ``subspaces`` maps each computed subspace method of
    ``SUBSPACE_METHODS`` to its summary.  ``slope_window`` is the window
    of the GAS matrix (``None`` without ``gas``, or in a report read from
    schema version 1, which did not record it).  Each field's metadata
    names the JSON section that holds it, so the serializers walk the
    fields.
    """

    model_label: str = _in("meta", key="model")
    d: int = _in("meta")
    seed: int = _in("meta")
    n: int = _in("meta")
    m1: int = _in("meta")
    m2: int = _in("meta")
    h: float = _in("meta")
    noise_scale: float = _in("meta")
    threshold: float = _in("meta")
    methods: tuple[str, ...] = _in("meta")
    slope_window: float | None = _in("meta", None)
    sigma2_hat: float | None = _in("scores", None)
    sobol_lower: Vector | None = _in("scores", None)
    sobol_upper: Vector | None = _in("scores", None)
    dgsm_raw: Vector | None = _in("scores", None)
    dgsm_normalized: Vector | None = _in("scores", None)
    subspaces: dict[str, SubspaceSummary] = field(default_factory=dict)
    u1_alignment: float | None = _in("spectra", None)
    reference_direction: Vector | None = _in("spectra", None)


# the nullable report fields that are non-null when meta.methods lists their method
_FILLED_BY = {"sigma2_hat": "sobol", "sobol_lower": "sobol", "sobol_upper": "sobol",
              "dgsm_raw": "dgsm"}


@dataclass(frozen=True)
class ConvergenceTable:
    """Per-size score trajectories and rank agreement against a reference."""

    model_label: str
    method: str
    sizes: tuple[int, ...]
    n_seeds: int
    reference: np.ndarray  # 1-based reference permutation
    ranks: dict  # (size, seed_index) -> 1-based permutation
    score_vectors: dict  # (size, seed_index) -> estimated scores
    mean_scores: np.ndarray  # (len(sizes), d) seed-averaged scores
    full_match_fraction: np.ndarray
    top3_match_fraction: np.ndarray
    slope_window: float | None = None  # of a gas_scores table's slope samples


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
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(float(obj))
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
    if hasattr(obj, "tolist"):  # a numpy array or scalar
        return dumps_json(obj.tolist(), indent)
    raise InputDomainError(f"cannot serialize value of type {type(obj).__name__}")


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _opt(value):
    if hasattr(value, "tolist"):  # a numpy array or scalar
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def _report_schema() -> tuple:
    """(section, key, method, field name, annotation, needs) of every report
    value in output order: the ``SensitivityReport`` fields as declared, with
    ``subspaces`` expanded in place into each method's ``scores`` fields and
    then each method's ``spectra`` fields, keyed ``<method>_<field>`` and
    ``m_<method>``.  ``method`` is ``None`` for a field of the report itself;
    ``needs`` is "" for a field never null, the method whose listing in
    ``meta.methods`` makes the field non-null, or ``None``."""
    slots = []
    for f in fields(SensitivityReport):
        if f.name != "subspaces":
            slots.append((f.metadata["section"], f.metadata["key"] or f.name,
                          None, f.name, f.type,
                          _FILLED_BY.get(f.name) if f.type.endswith("| None") else ""))
            continue
        for section in ("scores", "spectra"):
            slots.extend((section, f"m_{method}" if g.name == "m"
                           else f"{method}_{g.name}", method, g.name, g.type,
                           None if g.type.endswith("| None") else method)
                         for method in SUBSPACE_METHODS
                         for g in fields(SubspaceSummary)
                         if g.metadata["section"] == section)
    return tuple(slots)


_SCHEMA = _report_schema()


def _walk(report: SensitivityReport):
    """(section, key, annotation, value) of every report value in output
    order; the values of a method the report did not compute are ``None``."""
    for section, key, method, name, annotation, _ in _SCHEMA:
        owner = report if method is None else report.subspaces.get(method)
        yield section, key, annotation, None if owner is None else getattr(owner, name)


def report_to_dict(report: SensitivityReport) -> dict:
    """JSON layout of a report: metadata, led by the schema version, then
    per-method scores and spectra."""
    out: dict = {"meta": {"schema_version": _SCHEMA_VERSION}, "scores": {}, "spectra": {}}
    for section, key, _, value in _walk(report):
        out[section][key] = _opt(value)
    return out


# the JSON types of each kind of field (a boolean is no number in a report)
_TYPES = {"str": ((str,), "a string"), "int": ((int,), "an integer"),
          "float": ((int, float), "a number"), "list": ((list,), "a list"),
          "dict": ((dict,), "an object")}


def _typed(value, kind: str, verb: str):
    """``value`` if it has the JSON type of a ``kind`` field."""
    types, noun = _TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        shown = {list: "a list", dict: "an object"}.get(type(value), repr(value))
        raise ValueError(f"{verb} {shown}, not {noun}")
    return value


def _parse(value, annotation: str, d: int | None):
    """A JSON value as the report field declared ``annotation`` holds it: a
    vector as a tuple of ``d`` floats.  A value of another JSON type than
    the field's, or a non-finite number, raises ``ValueError``."""
    if value is None:  # a null the reader allowed
        return None
    kind = annotation.removesuffix(" | None")
    if kind.startswith("tuple"):
        return tuple(_typed(item, "str", "holds")
                     for item in _typed(value, "list", "is"))
    if kind.startswith("Vector"):
        vector = tuple(float(_typed(item, "float", "holds"))
                       for item in _typed(value, "list", "is"))
        if len(vector) != d:
            raise ValueError(f"holds {len(vector)} numbers, not d = {d}")
        if not all(map(math.isfinite, vector)):
            raise ValueError("holds a non-finite number")
        return vector
    scalar = _typed(value, kind, "is")
    if kind == "float":
        scalar = float(scalar)
        if not math.isfinite(scalar):
            raise ValueError("is not finite")
    return scalar


def _member(obj, key: str, owner: str):
    """Member ``key`` of ``obj``, the JSON object ``owner`` ("" for the report);
    a non-object or a missing member raises ``InputDomainError`` naming it."""
    try:
        if key in _typed(obj, "dict", "is"):
            return obj[key]
    except ValueError as exc:
        raise InputDomainError(f"{owner or 'the report'} {exc}") from None
    raise InputDomainError(f"{owner + '.' if owner else ''}{key} is missing")


def _schema_version(data) -> int:
    """``meta.schema_version`` of a report: 1 when it has none, as in
    every report written before version 2."""
    meta = data.get("meta") if isinstance(data, dict) else None
    if not isinstance(meta, dict) or "schema_version" not in meta:
        return 1  # a malformed report is refused by the walk over its fields
    try:
        version = _typed(meta["schema_version"], "int", "is")
    except ValueError as exc:
        raise InputDomainError(f"meta.schema_version {exc}") from None
    if version not in (1, _SCHEMA_VERSION):
        raise InputDomainError(f"meta.schema_version is {version}, not 1 or {_SCHEMA_VERSION}")
    return version


def report_from_dict(data: dict) -> SensitivityReport:
    """Inverse of ``report_to_dict``, with each vector a tuple of floats and
    a summary for each subspace method that ``meta.methods`` lists.  A
    report of schema version 1, which has no ``meta.schema_version`` and no
    ``meta.slope_window``, reads with ``slope_window`` None.

    A missing field, a section that is no JSON object, a null that ``needs``
    forbids, or a field that cannot hold its value, such as a non-finite
    number, a ``meta.d`` below 1 or a vector whose length is not ``meta.d``,
    raises ``InputDomainError`` naming the field (``scores.sobol_upper``),
    and so does a schema version other than 1 and 2."""
    version = _schema_version(data)
    values: dict = {}
    summaries: dict = {method: {} for method in SUBSPACE_METHODS}
    for section, key, method, name, annotation, needs in _SCHEMA:
        target = values if method is None else summaries[method]
        if version == 1 and key == "slope_window":
            target[name] = None
            continue
        value = _member(_member(data, section, ""), key, section)
        # meta.methods is never null and precedes every field of a method
        if value is None and needs is not None and (not needs or needs in values["methods"]):
            listed = f", but meta.methods lists {needs}" if needs else ""
            raise InputDomainError(f"{section}.{key} is null{listed}")
        try:
            # meta.d precedes every vector in the schema
            target[name] = _parse(value, annotation, values.get("d"))
            if name == "d" and target[name] < 1:
                raise ValueError(f"is {target[name]}, not at least 1")
        except (ValueError, OverflowError) as exc:  # an int beyond any float
            raise InputDomainError(f"{section}.{key} {exc}") from None
    return SensitivityReport(**values, subspaces={
        method: SubspaceSummary(**summary)
        for method, summary in summaries.items() if method in values["methods"]})


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
    vectors = [(key, value) for section, key, annotation, value in _walk(report)
               if section == "scores" and annotation.startswith("Vector")
               and value is not None]
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
    meta = {"model": table.model_label, "method": table.method,
            "sizes": list(table.sizes), "n_seeds": table.n_seeds,
            "reference": [int(r) for r in table.reference]}
    if table.method == "gas_scores":
        meta["slope_window"] = table.slope_window
    return {
        "meta": meta,
        "mean_scores": table.mean_scores.tolist(),
        "full_match_fraction": table.full_match_fraction.tolist(),
        "top3_match_fraction": table.top3_match_fraction.tolist(),
        "cells": cells,
    }
