"""Plot-ready CSV series and minimal static SVG charts from experiment
reports.  The SVG output is deliberately spartan: axes, ticks, and one
polyline per series."""
from __future__ import annotations

import math
import os
from typing import Sequence

from .experiments import ExperimentReport, _csv_field

__all__ = ["series_csv", "svg_line_chart", "emit_report_plots"]


def series_csv(x_name: str, xs: Sequence[float],
               columns: dict[str, Sequence[float]]) -> str:
    names = sorted(columns)
    lines = [",".join(map(_csv_field, [x_name] + names))]
    for i, x in enumerate(xs):
        lines.append(",".join([repr(float(x))]
                              + [repr(float(columns[n][i])) for n in names]))
    return "\n".join(lines) + "\n"


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(lo_e, hi_e + 1)]
    if hi == lo:
        return [lo]
    step = 10.0 ** math.floor(math.log10((hi - lo) / 4.0))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def svg_line_chart(series: dict[str, tuple[Sequence[float], Sequence[float]]],
                   title: str, x_label: str, y_label: str,
                   log_x: bool = False, log_y: bool = False) -> str:
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    def tx(v):
        return math.log10(v) if log_x else v

    def ty(v):
        return math.log10(v) if log_y else v

    xs_all = [tx(x) for (xs, _) in series.values() for x in xs]
    ys_all = [ty(y) for (_, ys) in series.values() for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return ml + pw * (tx(v) - x0) / (x1 - x0)

    def py(v):
        return mt + ph * (1 - (ty(v) - y0) / (y1 - y0))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{mt+ph}" x2="{ml+pw}" y2="{mt+ph}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt+ph}" stroke="black"/>',
        f'<text x="{ml+pw/2:.1f}" y="{height-10}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{mt+ph/2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {mt+ph/2:.1f})">{y_label}</text>',
    ]
    for v in _ticks(10 ** x0 if log_x else x0, 10 ** x1 if log_x else x1, log_x):
        x = px(v)
        if x < ml - 1e-6 or x > ml + pw + 1e-6:
            continue
        parts.append(f'<line x1="{x:.1f}" y1="{mt+ph}" x2="{x:.1f}" '
                     f'y2="{mt+ph+5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt+ph+18}" text-anchor="middle" '
                     f'font-size="10">{v:g}</text>')
    for v in _ticks(10 ** y0 if log_y else y0, 10 ** y1 if log_y else y1, log_y):
        y = py(v)
        if y < mt - 1e-6 or y > mt + ph + 1e-6:
            continue
        parts.append(f'<line x1="{ml-5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{ml-8}" y="{y+3:.1f}" text-anchor="end" '
                     f'font-size="10">{v:g}</text>')
    for i, name in enumerate(sorted(series)):
        xs, ys = series[name]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml+pw-6}" y="{mt+14+14*i}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report_plots(report: ExperimentReport, out_dir: str) -> list[str]:
    """Write the plot-ready series (CSV + SVG) for one report; returns the
    file names produced."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    ns = [float(n) for n in report.config.n_ladder]
    t_last = str(float(report.config.t_list[-1]))

    def emit(stem, columns, y_label, log_y):
        csv_path = os.path.join(out_dir, f"{stem}.csv")
        with open(csv_path, "w") as fh:
            fh.write(series_csv("n", ns, columns))
        svg_path = os.path.join(out_dir, f"{stem}.svg")
        series = {name: (ns, list(vals)) for name, vals in columns.items()}
        with open(svg_path, "w") as fh:
            fh.write(svg_line_chart(series, stem.replace("_", " "),
                                    "n", y_label, log_x=True, log_y=log_y))
        written.extend([csv_path, svg_path])

    if report.kind == "clt":
        for stem, y_label in (("cf_distance", "max characteristic-function gap"),
                              ("slope_Z2_on_L", "Z^2-on-L slope")):
            agg = report.aggregates[stem]
            emit(stem, {lbl: [agg[lbl][str(int(n))][t_last] for n in ns]
                        for lbl in agg}, y_label, False)
    else:
        agg = report.aggregates["l2_error"]
        emit("l2_error",
             {lbl: [agg[lbl][t_last][str(int(n))] for n in ns]
              for lbl in agg},
             "L2 error", True)
    return written
