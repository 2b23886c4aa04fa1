"""Deterministic CSV / JSON / SVG writers for CLI results.

Every CSV starts with a comment line carrying the fully resolved
configuration (JSON, sorted keys) followed by a header row naming the
columns. Floats are rendered with repr-grade precision through a fixed
format, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

_FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FLOAT_FMT % float(x)


def config_comment(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def write_csv(path: str, header, rows, config: dict) -> None:
    """Write rows (iterable of tuples) with a config comment and header."""
    lines = [config_comment(config), ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def ensure_dir(path: str) -> None:
    if path and not os.path.isdir(path):
        os.makedirs(path, exist_ok=True)


def svg_polylines(path: str, series, title: str = "",
                  width: int = 720, height: int = 440) -> None:
    """Render (label, x, y) series as SVG polylines with a plain frame.

    Self-contained static markup; axes are the data bounding box with
    min/max tick labels only.
    """
    pad = 50.0
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 - x0 <= 0.0:
        x1 = x0 + 1.0
    if y1 - y0 <= 0.0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ("#1f6fb2", "#b23a1f", "#2e8b57", "#6a3ab2", "#b2891f")
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<rect x="%g" y="%g" width="%g" height="%g" fill="none" '
        'stroke="#444" stroke-width="1"/>' % (pad, pad, width - 2 * pad,
                                              height - 2 * pad),
    ]
    if title:
        parts.append('<text x="%g" y="%g" font-size="14" font-family="sans-serif" '
                     'fill="#222">%s</text>' % (pad, pad - 12.0, title))
    for k in (x0, x1):
        parts.append('<text x="%g" y="%g" font-size="11" font-family="sans-serif" '
                     'fill="#555" text-anchor="middle">%.4g</text>'
                     % (sx(k), height - pad + 16.0, k))
    for k in (y0, y1):
        parts.append('<text x="%g" y="%g" font-size="11" font-family="sans-serif" '
                     'fill="#555" text-anchor="end">%.4g</text>'
                     % (pad - 6.0, sy(k) + 4.0, k))
    for i, (label, x, y) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join("%.2f,%.2f" % (sx(a), sy(b)) for a, b in zip(x, y))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, color))
        if label:
            parts.append('<text x="%g" y="%g" font-size="12" '
                         'font-family="sans-serif" fill="%s">%s</text>'
                         % (width - pad - 150.0, pad + 16.0 + 16.0 * i, color, label))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
