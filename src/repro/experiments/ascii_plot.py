"""Terminal line plots, because the offline environment has no matplotlib.

The plots are deliberately simple: a fixed-size character grid, one marker
character per series, linear or log-10 x scaling.  They exist so a human can
eyeball the reproduced curve shapes straight from the CLI; the CSV export is
the machine-readable artifact.
"""

from __future__ import annotations

import math

from .series import FigureData

#: Marker characters cycled across series.
MARKERS = "ox+*#@%&"


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    if hi == lo:
        return 0
    t = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, round(t * (steps - 1))))


def _x_transform(value: float, log_x: bool) -> float:
    if not log_x:
        return value
    if value <= 0:
        raise ValueError(f"log-x plot cannot place x={value}")
    return math.log10(value)


def render_plot(
    figure: FigureData, *, width: int = 64, height: int = 18
) -> str:
    """Render all series of ``figure`` on one character grid."""
    if width < 16 or height < 6:
        raise ValueError("plot area too small to be legible")
    all_x = [
        _x_transform(x, figure.log_x) for s in figure.series for x in s.xs
    ]
    all_y = [y for s in figure.series for y in s.ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:  # flat lines still deserve a visible axis range
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(figure.series):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in series.points:
            col = _scale(_x_transform(x, figure.log_x), x_lo, x_hi, width)
            row = height - 1 - _scale(y, y_lo, y_hi, height)
            grid[row][col] = marker

    lines = [f"{figure.title}  [{figure.figure_id}]"]
    y_label_width = 9
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_hi:>8.3g} "
        elif i == height - 1:
            label = f"{y_lo:>8.3g} "
        else:
            label = " " * y_label_width
        lines.append(label + "|" + "".join(row))
    x_axis = " " * y_label_width + "+" + "-" * width
    lines.append(x_axis)
    x_lo_label = f"{(10 ** x_lo if figure.log_x else x_lo):.3g}"
    x_hi_label = f"{(10 ** x_hi if figure.log_x else x_hi):.3g}"
    padding = width - len(x_lo_label) - len(x_hi_label)
    lines.append(
        " " * (y_label_width + 1) + x_lo_label + " " * max(1, padding) + x_hi_label
    )
    scale_note = " (log scale)" if figure.log_x else ""
    lines.append(f"{'':>{y_label_width}} x: {figure.xlabel}{scale_note}   y: {figure.ylabel}")
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} = {s.label}" for i, s in enumerate(figure.series)
    )
    lines.append(f"{'':>{y_label_width}} {legend}")
    return "\n".join(lines)
