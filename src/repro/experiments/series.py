"""Data containers for reproduced figures: labelled series of (x, y) points.

A paper figure maps to one or more :class:`FigureData` panels (e.g.
Figure 3(a) and 3(b)), each holding labelled series.  These are pure data —
rendering (tables, ASCII plots, CSV) lives in :mod:`repro.experiments.report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Series:
    """One labelled curve."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"series {self.label!r} has no points")

    @property
    def xs(self) -> list[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> list[float]:
        return [p[1] for p in self.points]

    def y_at(self, x: float) -> float:
        # Tolerant match: x values accumulated in float (epsilon sweeps,
        # round counters built by repeated addition) can differ from the
        # queried literal by an ulp or two — exact equality silently missed.
        for px, py in self.points:
            if math.isclose(px, x, rel_tol=1e-9, abs_tol=1e-12):
                return py
        raise KeyError(f"series {self.label!r} has no point at x={x}")


@dataclass(frozen=True)
class FigureData:
    """One reproduced panel: id, axis labels, and its series."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]
    #: Reproduction notes: what shape the paper reports for this panel.
    expectation: str = ""
    log_x: bool = False
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError(f"figure {self.figure_id!r} has no series")
        labels = [s.label for s in self.series]
        if len(labels) != len(set(labels)):
            raise ValueError(f"figure {self.figure_id!r} has duplicate series: {labels}")

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"figure {self.figure_id!r} has no series {label!r}")

    def to_csv_rows(self) -> list[tuple[str, str, float, float]]:
        """Flat (figure_id, series, x, y) rows for CSV export."""
        return [
            (self.figure_id, s.label, x, y)
            for s in self.series
            for x, y in s.points
        ]
