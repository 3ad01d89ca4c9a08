"""Tiny static SVG line plotter (axes, ticks, polylines, legend).

Plots are a convenience artifact only; the CSV tables are the contract.
Output is deterministic: fixed canvas, fixed formatting, no timestamps.
"""

from __future__ import annotations

import math

# canvas size in pixels, and ticks per axis
_WIDTH = 720
_HEIGHT = 480
_N_TICKS = 5


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (_N_TICKS - 1)
    return [lo + i * step for i in range(_N_TICKS)]


def write_svg(path: str, curves, xlabel: str, ylabel: str,
              title: str = "", logx: bool = False, logy: bool = False) -> None:
    """Write polyline curves to an SVG file.

    curves: iterable of (x_values, y_values, label).  Log axes drop
    non-positive points.
    """
    ml, mr, mt, mb = 70, 20, 30, 50
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    pts_all = []
    for xs, ys, _ in curves:
        for x, y in zip(xs, ys):
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            pts_all.append((tx(float(x)), ty(float(y))))
    if not pts_all:
        pts_all = [(0.0, 0.0), (1.0, 1.0)]
    x0 = min(p[0] for p in pts_all)
    x1 = max(p[0] for p in pts_all)
    y0 = min(p[1] for p in pts_all)
    y1 = max(p[1] for p in pts_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return ml + (v - x0) / (x1 - x0) * pw

    def py(v):
        return mt + ph - (v - y0) / (y1 - y0) * ph

    colors = ["#1f5fbf", "#bf3f3f", "#3f9f3f", "#9f3f9f", "#7f7f1f"]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
           f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
               'fill="none" stroke="black"/>')
    for v in _ticks(x0, x1):
        X = px(v)
        label = _fmt(10**v) if logx else _fmt(v)
        out.append(f'<line x1="{X:.1f}" y1="{mt + ph}" x2="{X:.1f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{X:.1f}" y="{mt + ph + 18}" '
                   f'text-anchor="middle" font-size="11">{label}</text>')
    for v in _ticks(y0, y1):
        Y = py(v)
        label = _fmt(10**v) if logy else _fmt(v)
        out.append(f'<line x1="{ml - 5}" y1="{Y:.1f}" x2="{ml}" '
                   f'y2="{Y:.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{Y + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{label}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 10}" '
               f'text-anchor="middle" font-size="12">{xlabel}</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-size="12" transform="rotate(-90 18 {mt + ph / 2:.1f})">'
               f'{ylabel}</text>')
    for ci, (xs, ys, label) in enumerate(curves):
        color = colors[ci % len(colors)]
        pts = []
        for x, y in zip(xs, ys):
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            pts.append(f"{px(tx(float(x))):.2f},{py(ty(float(y))):.2f}")
        if pts:
            out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        if label:
            Y = mt + 16 + 16 * ci
            out.append(f'<line x1="{ml + pw - 150}" y1="{Y - 4}" '
                       f'x2="{ml + pw - 120}" y2="{Y - 4}" stroke="{color}" '
                       'stroke-width="1.5"/>')
            out.append(f'<text x="{ml + pw - 114}" y="{Y}" font-size="11">'
                       f'{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
