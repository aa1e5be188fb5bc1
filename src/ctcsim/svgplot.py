"""Minimal dependency-free SVG line-plot renderer.

Plots are a convenience view of the CSV output, nothing more: one panel,
linear axes, a handful of labelled series.
"""

from __future__ import annotations

import math

_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#e67e22", "#16a085"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def svg(series: list[tuple[str, list[float], list[float]]], title: str, x_label: str,
        y_label: str) -> str:
    """Named (x, y) series as the text of a single-panel SVG line plot."""
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # Axes, ticks, grid.
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333"/>'
    )
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
                f'y2="{_H - _MB + 4}" stroke="#333"/>'
                f'<text x="{px(t):.1f}" y="{_H - _MB + 17}" text-anchor="middle">{t:g}</text>'
            )
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            parts.append(
                f'<line x1="{_ML - 4}" y1="{py(t):.1f}" x2="{_ML}" y2="{py(t):.1f}" stroke="#333"/>'
                f'<line x1="{_ML}" y1="{py(t):.1f}" x2="{_W - _MR}" y2="{py(t):.1f}" '
                f'stroke="#eee"/>'
                f'<text x="{_ML - 7}" y="{py(t) + 4:.1f}" text-anchor="end">{t:g}</text>'
            )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>'
    )
    # Series plus legend.
    for i, (name, sx, sy) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = sorted(zip(sx, sy))
        if len(pts) == 1:
            for x, y in pts:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5" fill="{color}"/>')
        else:
            d = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
            parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 126}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{_W - _MR - 120}" y="{ly + 4}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
