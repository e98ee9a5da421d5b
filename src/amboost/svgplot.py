"""Minimal SVG polyline charts.

CSV tables are the authoritative experiment output; these charts exist
for quick visual inspection without a plotting dependency.
"""

from __future__ import annotations

import math

_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 44


def _transform(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def write_line_svg(path, series, title="", xlabel="", ylabel=""):
    """Write labelled polylines to an SVG file.

    Parameters
    ----------
    path : str or Path
    series : dict
        Maps label -> (xs, ys). Non-finite points are dropped.
    """
    cleaned = {}
    for label, (xs, ys) in series.items():
        pts = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        ]
        if pts:
            cleaned[label] = pts
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    if not cleaned:
        parts.append(
            f'<text x="{_W / 2}" y="{_H / 2}" text-anchor="middle" '
            'font-size="12" font-family="sans-serif">no data</text></svg>'
        )
        with open(path, "w") as fh:
            fh.write("\n".join(parts))
        return

    all_x = [p[0] for pts in cleaned.values() for p in pts]
    all_y = [p[1] for pts in cleaned.values() for p in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)

    # axes
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = _ML + frac * (_W - _ML - _MR)
        yp = (_H - _MB) - frac * (_H - _MT - _MB)
        parts.append(
            f'<text x="{xp:.1f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{yp:.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2})">{ylabel}</text>'
    )

    for i, (label, pts) in enumerate(cleaned.items()):
        xs, ys = zip(*pts)
        xp = _transform(xs, x_lo, x_hi, _ML, _W - _MR)
        yp = _transform(ys, y_lo, y_hi, _H - _MB, _MT)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xp, yp))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = _MT + 14 * (i + 1)
        parts.append(
            f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 100}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 96}" y="{ly}" font-size="10" '
            f'font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
