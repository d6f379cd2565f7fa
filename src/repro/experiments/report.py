"""Rendering and persistence of reproduced figures.

Each figure becomes three artifacts:

* an aligned text table (all series side by side, one row per x);
* an ASCII plot for eyeballing shapes;
* a CSV file under ``results/`` for downstream tooling.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .ascii_plot import render_plot
from .series import FigureData


def render_table(figure: FigureData, *, precision: int = 4) -> str:
    """All series of a panel as one aligned table keyed by x."""
    xs = sorted({x for s in figure.series for x in s.xs})
    col_width = max(12, *(len(s.label) + 2 for s in figure.series))
    header = f"{figure.xlabel:>14} " + " ".join(
        f"{s.label:>{col_width}}" for s in figure.series
    )
    lines = [f"== {figure.title} [{figure.figure_id}] ==", header, "-" * len(header)]
    for x in xs:
        cells = []
        for s in figure.series:
            try:
                cells.append(f"{s.y_at(x):>{col_width}.{precision}g}")
            except KeyError:
                cells.append(f"{'-':>{col_width}}")
        lines.append(f"{x:>14.6g} " + " ".join(cells))
    if figure.expectation:
        lines.append(f"expected shape: {figure.expectation}")
    return "\n".join(lines)


def render_timing(figure: FigureData) -> str | None:
    """One-line cost summary when the run embedded timing telemetry.

    Present only when the experiment ran with ``timing=True`` (the CLI's
    ``--timing``); see :func:`repro.experiments.figures.registry.run_experiment`.
    """
    timing = figure.metadata.get("timing")
    if not isinstance(timing, dict):
        return None
    return (
        f"cost: {timing.get('trials', '?')} trials in "
        f"{timing.get('wall_seconds', 0.0):.3f}s wall — "
        f"jobs={timing.get('jobs', 1)}, "
        f"utilization={timing.get('utilization', 1.0):.0%}, "
        f"workers={timing.get('workers', 1)}, "
        f"failures={timing.get('failures', 0)}"
    )


def render_figure(figure: FigureData, *, plot: bool = True) -> str:
    """Table plus (optionally) the ASCII plot."""
    parts = [render_table(figure)]
    timing = render_timing(figure)
    if timing:
        parts.append(timing)
    if plot:
        parts.append(render_plot(figure))
    return "\n\n".join(parts)


def write_csv(figures: list[FigureData], path: Path | str) -> Path:
    """Write all panels' points as one CSV (figure_id, series, x, y)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["figure_id", "series", "x", "y"])
        for figure in figures:
            writer.writerows(figure.to_csv_rows())
    return path
