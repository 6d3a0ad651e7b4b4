"""Hand-generated deterministic SVG charts (no plotting dependency).

Every chart uses a fixed 800x500 canvas, a fixed palette, fixed-precision
coordinates, and carries no timestamps, so a chart is a pure function of its
data and suits golden-file comparison.  A series may be a numpy array or a
sequence of floats, as in a report read back from JSON; both give the same
bytes.  The module imports no numpy, so ``sensyn plot`` does not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import InputDomainError

if TYPE_CHECKING:
    from .output import ConvergenceTable, SensitivityReport

WIDTH = 800
HEIGHT = 500
PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4",
           "#8c613c", "#dc7ec0", "#797979", "#d5bb67", "#82c6e2")
FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class Canvas:
    """Accumulates SVG elements on the fixed canvas."""

    def __init__(self):
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>')

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, dash=None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"{extra}/>')

    def polyline(self, points, stroke, width=1.5):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, x, y, r, fill):
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>')

    def text(self, x, y, s, size=12, anchor="start", fill="#222222"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{fill}" {FONT}>{s}</text>')

    def to_string(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        body = "\n".join(['<rect width="100%" height="100%" fill="#ffffff"/>',
                          *self.parts])
        return head + "\n" + body + "\n</svg>\n"


class _Axes:
    """Maps data coordinates into a pixel box and draws simple frames."""

    def __init__(self, canvas, x0, y0, w, h, xlim, ylim):
        self.canvas = canvas
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.xmin, self.xmax = xlim
        self.ymin, self.ymax = ylim
        if self.xmax == self.xmin:
            self.xmax = self.xmin + 1.0
        if self.ymax == self.ymin:  # a unit span rounds away beside a large ymin
            self.ymax = self.ymin + max(1.0, abs(self.ymin))

    def px(self, x):
        return self.x0 + (x - self.xmin) / (self.xmax - self.xmin) * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.ymin) / (self.ymax - self.ymin) * self.h

    def frame(self, title=""):
        c = self.canvas
        c.line(self.x0, self.y0 + self.h, self.x0 + self.w, self.y0 + self.h)
        c.line(self.x0, self.y0, self.x0, self.y0 + self.h)
        if title:
            c.text(self.x0 + self.w / 2, self.y0 - 8, title, size=13,
                   anchor="middle")

    def ylabels(self, values):
        for v in values:
            y = self.py(v)
            self.canvas.line(self.x0 - 3, y, self.x0, y)
            self.canvas.text(self.x0 - 6, y + 4, f"{v:g}", size=10, anchor="end")


def _floats(values) -> list[float]:
    """The numbers of one series as floats; a non-finite one has no place
    on a chart."""
    out = [float(x) for x in values]
    if not all(map(math.isfinite, out)):
        raise InputDomainError("cannot plot a non-finite value")
    return out


def _nice_max(series: list[list[float]]) -> float:
    top = max(max(v) for v in series if v)
    if top <= 0.0:
        return 1.0
    mag = 10.0 ** math.floor(math.log10(top))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if top <= mag * mult:
            return mag * mult
    return top


def _line_series(canvas: Canvas, axes: _Axes, series, d: int,
                 legend_step: int) -> None:
    """Each series as a line through its d values at x = 1..d, with point
    markers and a legend entry every ``legend_step`` pixels, then the x
    ticks 1..d."""
    for si, (name, values) in enumerate(series):
        pts = [(axes.px(i + 1), axes.py(values[i])) for i in range(d)]
        canvas.polyline(pts, PALETTE[si])
        for x, y in pts:
            canvas.circle(x, y, 3, PALETTE[si])
        canvas.rect(100 + si * legend_step, 436, 10, 10, PALETTE[si])
        canvas.text(116 + si * legend_step, 445, name, size=11)
    for i in range(1, d + 1):
        canvas.text(axes.px(i), axes.y0 + axes.h + 16, str(i), size=10,
                    anchor="middle")


def bars_chart(report: SensitivityReport) -> str:
    """Grouped per-input bars: raw Sobol' indices on the left panel,
    sum-normalized derivative/score measures on the right."""
    canvas = Canvas()
    d = report.d
    left = [("lower Sobol'", report.sobol_lower),
            ("upper Sobol'", report.sobol_upper)]
    right = [("DGSM", report.dgsm_normalized)]
    for method, summary in report.subspaces.items():
        right += [(f"{method.upper()} m={summary.m}", summary.scores_m_normalized),
                  (f"{method.upper()} m=d", summary.scores_full_normalized)]
    left = [(n, _floats(v)) for n, v in left if v is not None]
    right = [(n, _floats(v)) for n, v in right if v is not None]
    if not left and not right:
        raise InputDomainError("report holds no scores to plot")

    panels = [p for p in (("Sobol' indices (raw)", left, 0),
                          ("normalized measures", right, len(left))) if p[1]]
    panel_w = (WIDTH - 120) / len(panels)
    for pi, (title, series, color_base) in enumerate(panels):
        x0 = 60 + pi * (panel_w + 30)
        ymax = _nice_max([v for _, v in series])
        axes = _Axes(canvas, x0, 60, panel_w - 30, 360, (0, d), (0.0, ymax))
        axes.frame(title)
        axes.ylabels([0.0, ymax / 2, ymax])
        group_w = (panel_w - 30) / d
        bar_w = group_w * 0.8 / len(series)
        for i in range(d):
            for si, (_, values) in enumerate(series):
                x = axes.px(i) + group_w * 0.1 + si * bar_w
                y = axes.py(values[i])
                canvas.rect(x, y, bar_w, axes.y0 + axes.h - y,
                            PALETTE[(color_base + si) % len(PALETTE)])
            canvas.text(axes.px(i) + group_w / 2, axes.y0 + axes.h + 16,
                        str(i + 1), size=10, anchor="middle")
        for si, (name, _) in enumerate(series):
            cx = x0 + 10 + 140 * (si // 3)
            cy = 448 + 16 * (si % 3)
            canvas.rect(cx, cy - 9, 10, 10,
                        PALETTE[(color_base + si) % len(PALETTE)])
            canvas.text(cx + 16, cy, name, size=11)
    canvas.text(WIDTH / 2, 24, f"{report.model_label}: sensitivity measures",
                size=15, anchor="middle")
    return canvas.to_string()


def spectrum_chart(report: SensitivityReport) -> str:
    """Normalized cumulative eigenvalue sums of the available spectra."""
    series = [(method.upper(), _floats(summary.cumulative))
              for method, summary in report.subspaces.items()]
    if not series:
        raise InputDomainError("report holds no spectra to plot")
    canvas = Canvas()
    d = report.d
    axes = _Axes(canvas, 80, 60, WIDTH - 160, 360, (1, d), (0.0, 1.0))
    axes.frame("normalized cumulative eigenvalue sum")
    axes.ylabels([0.0, 0.25, 0.5, 0.75, 1.0])
    thr = report.threshold
    canvas.line(axes.px(1), axes.py(thr), axes.px(d), axes.py(thr),
                stroke="#999999", dash="4,3")
    canvas.text(axes.px(d), axes.py(thr) - 4, f"threshold {thr:g}", size=10,
                anchor="end", fill="#777777")
    _line_series(canvas, axes, series, d, 120)
    canvas.text(WIDTH / 2, 24, f"{report.model_label}: spectrum", size=15,
                anchor="middle")
    return canvas.to_string()


def eigvec_chart(report: SensitivityReport) -> str:
    """Components of the leading eigenvectors, with the reference direction
    overlaid when the model declares one."""
    series = [(f"{method.upper()} u1", _floats(summary.first_eigenvector))
              for method, summary in report.subspaces.items()]
    if report.reference_direction is not None:
        series.append(("reference", _floats(report.reference_direction)))
    if not series:
        raise InputDomainError("report holds no eigenvectors to plot")
    canvas = Canvas()
    d = report.d
    lo = min(min(v) for _, v in series)
    hi = max(max(v) for _, v in series)
    pad = 0.1 * max(hi - lo, 1e-3)
    axes = _Axes(canvas, 80, 60, WIDTH - 160, 360, (1, d), (lo - pad, hi + pad))
    axes.frame("first eigenvector components")
    ticks = [round(lo, 2), round(hi, 2)]
    if lo < 0.0 < hi:
        ticks.insert(1, 0.0)
    axes.ylabels(ticks)
    if lo < 0.0 < hi:
        canvas.line(axes.px(1), axes.py(0.0), axes.px(d), axes.py(0.0),
                    stroke="#bbbbbb", dash="2,3")
    _line_series(canvas, axes, series, d, 140)
    canvas.text(WIDTH / 2, 24, f"{report.model_label}: eigenvectors", size=15,
                anchor="middle")
    return canvas.to_string()


def convergence_chart(tables: list[ConvergenceTable]) -> str:
    """Seed-averaged scores against sample size (log x), one panel per
    method and one line per input."""
    if not tables:
        raise InputDomainError("need at least one convergence table")
    canvas = Canvas()
    sizes = tables[0].sizes
    xmin = math.log10(sizes[0])
    xmax = math.log10(sizes[-1])
    if xmax == xmin:
        xmax = xmin + 1.0
    panel_w = (WIDTH - 120) / len(tables)
    for pi, table in enumerate(tables):
        x0 = 70 + pi * (panel_w + 30)
        rows = [_floats(row) for row in table.mean_scores]  # one per size
        ymax = _nice_max(rows)
        axes = _Axes(canvas, x0, 60, panel_w - 30, 340, (xmin, xmax),
                     (0.0, ymax))
        axes.frame(table.method)
        axes.ylabels([0.0, ymax / 2, ymax])
        for i in range(len(rows[0])):
            color = PALETTE[i % len(PALETTE)]
            pts = [(axes.px(math.log10(s)), axes.py(max(0.0, rows[si][i])))
                   for si, s in enumerate(sizes)]
            canvas.polyline(pts, color)
            for x, y in pts:
                canvas.circle(x, y, 2.5, color)
            canvas.text(pts[-1][0] + 5, pts[-1][1] + 3, str(i + 1), size=9,
                        fill=color)
        for s in sizes:
            canvas.text(axes.px(math.log10(s)), axes.y0 + axes.h + 16, str(s),
                        size=10, anchor="middle")
        frac = ", ".join(f"{s}:{f:.2f}" for s, f
                         in zip(sizes, table.full_match_fraction))
        canvas.text(x0 + 4, 455, f"reference-ranking fraction  {frac}", size=10,
                    fill="#555555")
    canvas.text(WIDTH / 2, 24,
                f"{tables[0].model_label}: score convergence", size=15,
                anchor="middle")
    return canvas.to_string()
