"""Minimal deterministic SVG renderers for line series and heatmaps.

No display server, no plotting dependency, and byte-stable output: the same
data always renders to the same file, which keeps report bundles reproducible.
Every plot streams its lines to the file.  A heatmap keeps three bytes of colour
per cell and formats and writes its cells one matrix row at a time, so its text
is never held whole.
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


def _header(width, height, title) -> list:
    """The lines that open every plot: the <svg> tag, a white background and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="18" text-anchor="middle" font-family="monospace" '
        f'font-size="13">{title}</text>',
    ]


def line_plot_svg(x, series: dict, path, title: str = ""):
    """Render one or more line series to a 900 x 320 SVG file on a vertical axis of [0, 1].

    Args:
        x: shared abscissa values.
        series: mapping of legend label -> y values.
    """
    width, height = 900, 320
    y_lo, y_hi = 0.0, 1.0
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())

    parts = _header(width, height, title) + [
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
    px = _scale(x, x_lo, x_hi, MARGIN, width - MARGIN)
    for idx, (name, y) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
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


def heatmap_svg(matrix, path, title: str = "", x_labels=None, y_labels=None):
    """Render a matrix as a colored cell grid (rows bottom-up) to a 900 x 420 SVG file.

    Raises:
        ValueError: the matrix, or its value range, is not finite.
    """
    width, height = 900, 420
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
    rgb = np.empty((rows, cols, 3), dtype=np.uint8)  # every channel lies in 0..253
    rgb[..., 0] = np.rint(253 * v)
    rgb[..., 1] = np.rint(40 + 191 * v)
    rgb[..., 2] = np.maximum(np.rint(blue), 0)

    xs = [_fmt(MARGIN + j * cell_w) for j in range(cols)]
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'

    def lines():
        yield from _header(width, height, title)
        for i, row in enumerate(rgb):
            y = _fmt(height - MARGIN - (i + 1) * cell_h)
            fill = _HEX[row].view("U6")[:, 0].tolist()  # "rrggbb" per cell
            yield "\n".join(f'<rect x="{x}" y="{y}" {size} fill="#{c}"/>'
                             for x, c in zip(xs, fill))
        if y_labels is not None:
            for i in (0, rows - 1):
                py = height - MARGIN - (i + 0.5) * cell_h
                yield (f'<text x="{MARGIN - 4}" y="{_fmt(py)}" text-anchor="end" '
                       f'font-family="monospace" font-size="10">{y_labels[i]:.3g}</text>')
        if x_labels is not None:
            for j in (0, cols - 1):
                px = MARGIN + (j + 0.5) * cell_w
                yield (f'<text x="{_fmt(px)}" y="{height - MARGIN + 14}" text-anchor="middle" '
                       f'font-family="monospace" font-size="10">{x_labels[j]:.3g}</text>')
        yield "</svg>"

    _write(path, lines())


def _write(path, lines):
    """Write the lines of a plot to path as they come, each ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
