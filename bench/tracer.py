"""In-process span tracer for sensyn, installed from outside the package.

:class:`Tracer` replaces the public functions of each sensyn module, plus
``RngStream`` construction, ``RngStream.uniforms`` and ``Model.evaluate``,
with wrappers that record a span (name, start, end, parent, pass id) and the
work count of the call.  A function imported with ``from .x import y`` is
bound in several modules; every binding of the same object is replaced, so
no call escapes its span.  Spans stay in memory until :meth:`Tracer.dump`.

Model rows are attributed to the innermost estimator span, which gives the
evaluation counter of each estimator (:meth:`Tracer.rows_by_estimator`).
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYER_MODULES = ("randkit", "models", "variance", "dgsm", "subspace", "linalg",
                 "bounds", "report", "output", "svgplot", "cli")

# estimator span -> row group it is charged to
ESTIMATORS = {
    "variance.estimate_variance": "variance",
    "variance.upper_sobol": "variance",
    "variance.lower_sobol": "variance",
    "dgsm.gradient_matrix": "dgsm",
    "subspace.estimate_c_gas": "subspace.gas",
    "bounds.check_gas_bound_uniform": "bounds",
    "bounds.check_gas_bound_general": "bounds",
    "bounds.check_quadratic_identity": "bounds",
    "bounds.check_dgsm_bounds": "bounds",
}
ROW_GROUPS = ("variance", "dgsm", "subspace.gas", "bounds")

# span record fields
NAME, START, END, PARENT, PASS, COUNT = range(6)


def _rows(args, kwargs, result):
    z = np.asarray(args[1])
    return (1 if z.ndim == 1 else z.shape[0], args[0].d)


def _draws(args, kwargs, result):
    return int(np.size(result))


def _gas_design(args, kwargs, result):
    model, m1, m2 = args[:3]
    return (int(m1), int(m2), model.d)


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8")) if isinstance(result, str) else 0


def _matrix_dim(args, kwargs, result):
    return int(np.shape(args[0])[0])


_COUNTERS = {
    "models.eval": _rows,
    "randkit.uniforms": _draws,
    "randkit.normal_inv_cdf": _draws,
    "subspace.estimate_c_gas": _gas_design,
    "linalg.sym_eig": _matrix_dim,
    "output.dumps_json": _text_bytes,
    "output.report_to_csv": _text_bytes,
}


class Tracer:
    """Records spans for every traced sensyn call made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)
        if counter is None and name.startswith("svgplot."):
            counter = _text_bytes

        def traced(*args, **kwargs):
            # direct recursion (dumps_json) stays inside the outer span
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        import sensyn.cli  # noqa: F401  (loads every layer module)
        from sensyn.models import Model
        from sensyn.randkit import RngStream

        modules = [m for key, m in sys.modules.items()
                   if key == "sensyn" or key.startswith("sensyn.")]
        for layer in LAYER_MODULES:
            module = sys.modules[f"sensyn.{layer}"]
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}")
                for owner in modules:
                    for bound, value in vars(owner).copy().items():
                        if value is fn:
                            self._patch(owner, bound, wrapper)
        self._patch(RngStream, "__init__",
                    self._wrap(RngStream.__init__, "randkit.RngStream"))
        self._patch(RngStream, "uniforms",
                    self._wrap(RngStream.uniforms, "randkit.uniforms"))
        self._patch(Model, "evaluate", self._wrap(Model.evaluate, "models.eval"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries -----------------------------------------------------------

    def dump(self, path: Path, pass_id: int) -> None:
        """Write the spans of one pass as JSON (times relative to its start)."""
        index = {}
        chosen = []
        for i, span in enumerate(self.spans):
            if span[PASS] == pass_id:
                index[i] = len(chosen)
                chosen.append(span)
        t0 = chosen[0][START] if chosen else 0.0
        rows = [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                 "parent": index.get(s[PARENT], -1), "pass": s[PASS],
                 "count": s[COUNT]} for s in chosen]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")

    def rows_by_estimator(self, pass_id: int | None = None) -> dict:
        """Model rows and calls charged to each innermost estimator span.

        Keys are estimator span indices; values are ``[rows, calls]``.  Rows
        evaluated outside any estimator are charged to key ``-1``.
        """
        out: dict = defaultdict(lambda: [0, 0])
        for span in self.spans:
            if span[NAME] != "models.eval" or (
                    pass_id is not None and span[PASS] != pass_id):
                continue
            owner = span[PARENT]
            while owner >= 0 and self.spans[owner][NAME] not in ESTIMATORS:
                owner = self.spans[owner][PARENT]
            out[owner][0] += span[COUNT][0]
            out[owner][1] += 1
        return out

    def rows_by_group(self, pass_id: int | None = None) -> dict[str, int]:
        groups = dict.fromkeys(ROW_GROUPS, 0)
        for owner, (rows, _) in self.rows_by_estimator(pass_id).items():
            if owner >= 0:
                groups[ESTIMATORS[self.spans[owner][NAME]]] += rows
        return groups


def self_times(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Total self time (span minus its child spans) per span name, one pass."""
    spans = tracer.spans
    chosen = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    child_time: dict = defaultdict(float)
    for i in chosen:
        child_time[spans[i][PARENT]] += spans[i][END] - spans[i][START]
    out: dict = defaultdict(float)
    for i in chosen:
        out[spans[i][NAME]] += spans[i][END] - spans[i][START] - child_time[i]
    return out


def largest_self_time(tracer: Tracer, pass_id: int) -> str:
    """Name of the span with the largest total self time in one pass."""
    totals = self_times(tracer, pass_id)
    return max(totals, key=totals.get)


def layer_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds)."""
    spans = tracer.spans
    chosen = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    self_t = self_times(tracer, pass_id)

    incl: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    outer: dict = defaultdict(float)  # time of spans not nested in their module
    for i in chosen:
        name, parent = spans[i][NAME], spans[i][PARENT]
        dur = spans[i][END] - spans[i][START]
        incl[name] += dur
        calls[name] += 1
        module = name.split(".")[0]
        if parent < 0 or not spans[parent][NAME].startswith(module + "."):
            outer[module] += dur
            if module in ("output", "svgplot") and isinstance(spans[i][COUNT], int):
                counts[module + ".bytes"] += spans[i][COUNT]
        if name in ("randkit.uniforms", "randkit.normal_inv_cdf"):
            counts[name] += spans[i][COUNT]

    rows = calls_eval = bytes_in = 0
    for i in chosen:
        if spans[i][NAME] == "models.eval":
            n, d = spans[i][COUNT]
            rows += n
            calls_eval += 1
            bytes_in += n * d * 8
    groups = tracer.rows_by_group(pass_id)

    design = redraw = 0
    for owner, (n_rows, _) in tracer.rows_by_estimator(pass_id).items():
        if owner >= 0 and spans[owner][NAME] == "subspace.estimate_c_gas":
            m1, m2, d = spans[owner][COUNT]
            design += m1 * m2 * d
            redraw += n_rows - m1 * (1 + m2 * d)

    eig = [i for i in chosen if spans[i][NAME] == "linalg.sym_eig"]
    return {
        "randkit.normal_inv_cdf.draws": counts["randkit.normal_inv_cdf"],
        "randkit.normal_inv_cdf.s": incl["randkit.normal_inv_cdf"],
        "randkit.streams": calls["randkit.RngStream"],
        "randkit.uniforms.calls": calls["randkit.uniforms"],
        "randkit.uniforms.draws": counts["randkit.uniforms"],
        "randkit.uniforms.s": incl["randkit.uniforms"],
        "models.eval.calls": calls_eval,
        "models.eval.rows": rows,
        "models.eval.s": incl["models.eval"],
        "models.eval.bytes_in": bytes_in,
        "models.sample_inputs.s": incl["models.sample_inputs"],
        "variance.estimate_variance.self_s": self_t["variance.estimate_variance"],
        "variance.upper_sobol.self_s": self_t["variance.upper_sobol"],
        "variance.lower_sobol.self_s": self_t["variance.lower_sobol"],
        "variance.rows": groups["variance"],
        "dgsm.gradient_matrix.self_s": self_t["dgsm.gradient_matrix"],
        "dgsm.rows": groups["dgsm"],
        "subspace.estimate_c_gas.self_s": self_t["subspace.estimate_c_gas"],
        "subspace.gas.rows": groups["subspace.gas"],
        "subspace.gas.first_draw_ratio": 1.0 - redraw / design if design else 1.0,
        "subspace.c_as_from_gradients.s": incl["subspace.c_as_from_gradients"],
        "linalg.sym_eig.calls": len(eig),
        "linalg.sym_eig.s": incl["linalg.sym_eig"],
        "linalg.sym_eig.max_d": max((spans[i][COUNT] for i in eig), default=0),
        "bounds.check_gas_bound_uniform.self_s": self_t["bounds.check_gas_bound_uniform"],
        "bounds.check_gas_bound_general.self_s": self_t["bounds.check_gas_bound_general"],
        "bounds.check_quadratic_identity.self_s": self_t["bounds.check_quadratic_identity"],
        "bounds.check_dgsm_bounds.self_s": self_t["bounds.check_dgsm_bounds"],
        "bounds.rows": groups["bounds"],
        "report.build_report.self_s": self_t["report.build_report"],
        "report.convergence_study.self_s": self_t["report.convergence_study"],
        "output.serialize.s": outer["output"],
        "output.bytes": counts["output.bytes"],
        "svgplot.s": outer["svgplot"],
        "svgplot.bytes": counts["svgplot.bytes"],
        "cli.main.s": incl["cli.main"],
        "cli.self_s": sum(t for name, t in self_t.items() if name.startswith("cli.")),
    }

