"""Unit tests for repro.experiments.series."""

import pytest

from repro.experiments.series import FigureData, Series


def make_figure() -> FigureData:
    return FigureData(
        figure_id="figX",
        title="t",
        xlabel="x",
        ylabel="y",
        series=(
            Series("a", ((1.0, 0.5), (2.0, 0.7))),
            Series("b", ((1.0, 0.1),)),
        ),
    )


class TestSeries:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            Series("a", ())

    def test_xs_ys(self):
        series = Series("a", ((1.0, 3.0), (2.0, 4.0)))
        assert series.xs == [1.0, 2.0]
        assert series.ys == [3.0, 4.0]

    def test_y_at(self):
        series = Series("a", ((1.0, 3.0),))
        assert series.y_at(1.0) == 3.0
        with pytest.raises(KeyError):
            series.y_at(9.0)

    def test_y_at_tolerates_accumulated_float_x(self):
        # Regression: x values built by repeated addition (0.1 * 3 != 0.3)
        # used to miss under exact equality and raise KeyError.
        x = 0.1 + 0.1 + 0.1
        assert x != 0.3
        series = Series("a", ((x, 7.0),))
        assert series.y_at(0.3) == 7.0
        assert series.y_at(x) == 7.0

    def test_y_at_tolerance_is_tight(self):
        # Neighbouring sweep points must not alias each other.
        series = Series("a", ((1.0, 1.0), (1.0001, 2.0)))
        assert series.y_at(1.0) == 1.0
        assert series.y_at(1.0001) == 2.0
        with pytest.raises(KeyError):
            series.y_at(1.00005)


class TestFigureData:
    def test_requires_series(self):
        with pytest.raises(ValueError, match="no series"):
            FigureData("f", "t", "x", "y", ())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate series"):
            FigureData(
                "f", "t", "x", "y",
                (Series("a", ((1.0, 1.0),)), Series("a", ((1.0, 2.0),))),
            )

    def test_series_by_label(self):
        figure = make_figure()
        assert figure.series_by_label("b").y_at(1.0) == 0.1
        with pytest.raises(KeyError):
            figure.series_by_label("zz")

    def test_to_csv_rows(self):
        rows = make_figure().to_csv_rows()
        assert ("figX", "a", 1.0, 0.5) in rows
        assert ("figX", "b", 1.0, 0.1) in rows
        assert len(rows) == 3
