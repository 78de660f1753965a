"""Minimal deterministic SVG renderers for line series and heatmaps.

No display server, no plotting dependency, and byte-stable output: the same
data always renders to the same file, which keeps report bundles reproducible.
"""

from __future__ import annotations

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

MARGIN = 46
LEGEND_STEP = 16


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def line_plot_svg(x, series: dict, path, title: str = "", width: int = 900, height: int = 320,
                  y_range=None):
    """Render one or more line series to an SVG file.

    Args:
        x: shared abscissa values.
        series: mapping of legend label -> y values.
        y_range: optional (lo, hi) override for the vertical axis.
    """
    x = np.asarray(x, dtype=float)
    ys = {name: np.asarray(v, dtype=float) for name, v in series.items()}
    all_y = np.concatenate(list(ys.values())) if ys else np.zeros(1)
    y_lo, y_hi = y_range if y_range else (float(all_y.min()), float(all_y.max()))
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_lo, x_hi = float(x.min()), float(x.max())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-family="monospace" '
        f'font-size="13">{title}</text>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{width - 2 * MARGIN}" '
        f'height="{height - 2 * MARGIN}" fill="none" stroke="#888888"/>',
    ]
    for tick in (y_lo, (y_lo + y_hi) / 2.0, y_hi):
        py = _scale([tick], y_lo, y_hi, height - MARGIN, MARGIN)[0]
        parts.append(
            f'<text x="{MARGIN - 4}" y="{_fmt(py)}" text-anchor="end" font-family="monospace" '
            f'font-size="10">{tick:.3g}</text>'
        )
    for tick in (x_lo, (x_lo + x_hi) / 2.0, x_hi):
        px = _scale([tick], x_lo, x_hi, MARGIN, width - MARGIN)[0]
        parts.append(
            f'<text x="{_fmt(px)}" y="{height - MARGIN + 14}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{tick:.3g}</text>'
        )
    for idx, (name, y) in enumerate(ys.items()):
        color = PALETTE[idx % len(PALETTE)]
        px = _scale(x, x_lo, x_hi, MARGIN, width - MARGIN)
        py = _scale(y, y_lo, y_hi, height - MARGIN, MARGIN)
        points = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = MARGIN + 14 + idx * LEGEND_STEP
        parts.append(
            f'<rect x="{width - MARGIN - 120}" y="{ly - 9}" width="10" height="10" '
            f'fill="{color}"/>'
            f'<text x="{width - MARGIN - 106}" y="{ly}" font-family="monospace" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    _write(path, parts)


_HEX = np.array([f"{k:02x}" for k in range(256)])


def heatmap_svg(matrix, path, title: str = "", x_labels=None, y_labels=None,
                width: int = 900, height: int = 420):
    """Render a matrix as a colored cell grid (rows bottom-up).

    Raises:
        ValueError: the matrix, or its value range, is not finite.
    """
    m = np.asarray(matrix, dtype=float)
    lo, hi = float(m.min()), float(m.max())
    span = hi - lo if hi > lo else 1.0
    rows, cols = m.shape
    cell_w = (width - 2 * MARGIN) / cols
    cell_h = (height - 2 * MARGIN) / rows
    with np.errstate(over="ignore", invalid="ignore"):
        v = (m - lo) / span  # in [0, 1] when finite
    if not np.isfinite(v).all():
        raise ValueError("heatmap matrix is not finite")

    # dark blue -> yellow ramp on a fixed integer lattice for reproducibility; rint rounds
    # half to even like round()
    blue = 84 + 60 * (1.0 - v) * (1.0 - v) - 84 * v
    # (1 - v) ** 2 is libm pow, which can differ from the product in the last bit; that moves
    # the rounding only within 1e-13 of a half-integer, so those cells take pow
    tie = np.abs(blue - np.floor(blue) - 0.5) < 1e-9
    blue[tie] = [84 + 60 * (1.0 - x) ** 2 - 84 * x for x in v[tie].tolist()]
    rgb = np.stack([np.rint(253 * v), np.rint(40 + 191 * v), np.maximum(np.rint(blue), 0)], -1)
    fill = _HEX[rgb.astype(int)].view("U6")[..., 0].tolist()  # rows x cols "rrggbb" strings

    xs = [_fmt(MARGIN + j * cell_w) for j in range(cols)]
    ys = [_fmt(height - MARGIN - (i + 1) * cell_h) for i in range(rows)]
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-family="monospace" '
        f'font-size="13">{title}</text>',
    ]
    parts += [f'<rect x="{x}" y="{y}" {size} fill="#{c}"/>'
              for y, row in zip(ys, fill) for x, c in zip(xs, row)]
    if y_labels is not None:
        for i in (0, rows - 1):
            py = height - MARGIN - (i + 0.5) * cell_h
            parts.append(
                f'<text x="{MARGIN - 4}" y="{_fmt(py)}" text-anchor="end" '
                f'font-family="monospace" font-size="10">{y_labels[i]:.3g}</text>'
            )
    if x_labels is not None:
        for j in (0, cols - 1):
            px = MARGIN + (j + 0.5) * cell_w
            parts.append(
                f'<text x="{_fmt(px)}" y="{height - MARGIN + 14}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">{x_labels[j]:.3g}</text>'
            )
    parts.append("</svg>")
    _write(path, parts)


def _write(path, parts):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
