"""Shape tests for every reproduced figure (small trial counts for speed).

Each test asserts the *qualitative* claims the paper makes about its figure
— who is above whom, where curves peak, what converges — which is exactly
the reproduction criterion in DESIGN.md.
"""

import pytest

from repro.experiments.figures import fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.figures import fig10, fig11, fig12, table1

TRIALS = 25
SEED = 42


@pytest.fixture(scope="module")
def fig6_panels():
    return fig6.run(trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def fig7_panels():
    return fig7.run(trials=60, seed=SEED)


@pytest.fixture(scope="module")
def fig10_panels():
    return fig10.run(trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def fig12_panels():
    return fig12.run(trials=TRIALS, seed=SEED)


class TestTable1:
    def test_renders_all_parameters(self):
        text = table1.run()
        for symbol in ("n", "k", "p0", "d"):
            assert symbol in text
        assert "dampening factor" in text


class TestFig3:
    def test_bounds_monotone_to_one(self):
        for panel in fig3.run():
            for series in panel.series:
                ys = series.ys
                assert ys == sorted(ys)
                assert ys[-1] > 0.99

    def test_smaller_p0_higher_early(self):
        panel_a = fig3.run()[0]
        assert panel_a.series_by_label("p0=0.25").y_at(1) > panel_a.series_by_label(
            "p0=1.0"
        ).y_at(1)

    def test_smaller_d_converges_faster(self):
        panel_b = fig3.run()[1]
        assert panel_b.series_by_label("d=0.25").y_at(3) > panel_b.series_by_label(
            "d=0.75"
        ).y_at(3)


class TestFig4:
    def test_rmin_grows_slowly(self):
        for panel in fig4.run():
            assert panel.log_x
            for series in panel.series:
                ys = series.ys  # indexed by decreasing eps -> r grows
                assert ys == sorted(ys)
                # O(sqrt(log)): full 6-decade sweep less than triples r_min.
                assert ys[-1] <= 3 * ys[0]

    def test_d_effect_larger_than_p0_effect(self):
        panel_a, panel_b = fig4.run()
        eps = 1e-7
        p0_spread = abs(
            panel_a.series_by_label("p0=0.25").y_at(eps)
            - panel_a.series_by_label("p0=1.0").y_at(eps)
        )
        d_spread = abs(
            panel_b.series_by_label("d=0.25").y_at(eps)
            - panel_b.series_by_label("d=0.75").y_at(eps)
        )
        assert d_spread > p0_spread


class TestFig5:
    def test_p0_one_zero_then_peak_round_two(self):
        panel_a = fig5.run()[0]
        series = panel_a.series_by_label("p0=1.0")
        assert series.y_at(1) == 0.0
        assert series.y_at(2) == max(series.ys)

    def test_small_p0_peaks_round_one(self):
        panel_a = fig5.run()[0]
        series = panel_a.series_by_label("p0=0.25")
        assert series.y_at(1) == max(series.ys)

    def test_larger_p0_lower_peak(self):
        panel_a = fig5.run()[0]
        assert max(panel_a.series_by_label("p0=1.0").ys) < max(
            panel_a.series_by_label("p0=0.25").ys
        )

    def test_smaller_d_higher_peak(self):
        panel_b = fig5.run()[1]
        assert max(panel_b.series_by_label("d=0.25").ys) > max(
            panel_b.series_by_label("d=0.75").ys
        )


class TestFig6:
    def test_precision_reaches_one(self, fig6_panels):
        for panel in fig6_panels:
            for series in panel.series:
                assert series.ys[-1] == 1.0

    def test_precision_nondecreasing(self, fig6_panels):
        for panel in fig6_panels:
            for series in panel.series:
                assert series.ys == sorted(series.ys)

    def test_smaller_d_faster(self, fig6_panels):
        panel_b = fig6_panels[1]
        assert panel_b.series_by_label("d=0.25").y_at(3) >= panel_b.series_by_label(
            "d=0.75"
        ).y_at(3)


class TestFig7:
    def test_p0_one_zero_loss_round_one(self, fig7_panels):
        for panel in fig7_panels:
            for series in panel.series:
                if series.label in ("p0=1.0", "d=0.25", "d=0.5", "d=0.75"):
                    assert series.y_at(1) == 0.0

    def test_p0_one_peaks_round_two(self, fig7_panels):
        series = fig7_panels[0].series_by_label("p0=1.0")
        assert series.y_at(2) == max(series.ys)

    def test_small_p0_peaks_round_one(self, fig7_panels):
        series = fig7_panels[0].series_by_label("p0=0.25")
        assert series.y_at(1) == max(series.ys)

    def test_loss_decays_late(self, fig7_panels):
        for panel in fig7_panels:
            for series in panel.series:
                assert series.ys[-1] <= 0.05


class TestFig8:
    def test_lop_decreases_with_n(self):
        for panel in fig8.run(trials=TRIALS, seed=SEED):
            for series in panel.series:
                assert series.ys[0] >= series.ys[-1]
                assert series.ys[0] > 0.0 or max(series.ys) == 0.0


class TestFig9:
    def test_knee_at_paper_defaults(self):
        figure = fig9.run(trials=TRIALS, seed=SEED)[0]
        # d controls the y axis: for fixed p0, smaller d costs fewer rounds.
        lop_half, rounds_half = figure.series_by_label("d=0.5").points[-1]
        lop_quarter, rounds_quarter = figure.series_by_label("d=0.25").points[-1]
        rounds_slow = figure.series_by_label("d=0.75").points[-1][1]
        assert rounds_quarter < rounds_half < rounds_slow
        # p0 controls the x axis: within a d-series, larger p0 lowers LoP.
        first = figure.series_by_label("d=0.5").points[0]
        last = figure.series_by_label("d=0.5").points[-1]
        assert last[0] <= first[0]


class TestFig10:
    def test_probabilistic_far_below_naive(self, fig10_panels):
        panel_a = fig10_panels[0]
        for n in (4.0, 16.0, 64.0):
            prob = panel_a.series_by_label("probabilistic").y_at(n)
            naive = panel_a.series_by_label("naive").y_at(n)
            assert prob < naive / 2

    def test_anonymous_matches_naive_average(self, fig10_panels):
        panel_a = fig10_panels[0]
        for n in (8.0, 32.0):
            anon = panel_a.series_by_label("anonymous-naive").y_at(n)
            naive = panel_a.series_by_label("naive").y_at(n)
            assert anon == pytest.approx(naive, abs=0.1)

    def test_naive_worst_case_stays_extreme(self, fig10_panels):
        panel_b = fig10_panels[1]
        # Same threshold as the production validator (validate.py): at the
        # reduced trial count the n=4 estimate is noisy (~0.68-0.9).
        for _, worst in panel_b.series_by_label("naive").points:
            assert worst > 0.6

    def test_anonymous_avoids_worst_case(self, fig10_panels):
        panel_b = fig10_panels[1]
        for n in (8.0, 64.0):
            anon = panel_b.series_by_label("anonymous-naive").y_at(n)
            naive = panel_b.series_by_label("naive").y_at(n)
            assert anon < naive / 2

    def test_average_lop_decreases_with_n(self, fig10_panels):
        panel_a = fig10_panels[0]
        for series in panel_a.series:
            assert series.ys[0] > series.ys[-1]


class TestFig11:
    def test_all_k_reach_full_precision(self):
        figure = fig11.run(trials=TRIALS, seed=SEED)[0]
        for series in figure.series:
            assert series.ys[-1] == 1.0
            assert series.ys == sorted(series.ys)


class TestFig12:
    def test_probabilistic_below_naive_for_all_k(self, fig12_panels):
        panel_a = fig12_panels[0]
        for k in (1.0, 4.0, 8.0, 16.0):
            prob = panel_a.series_by_label("probabilistic").y_at(k)
            naive = panel_a.series_by_label("naive").y_at(k)
            assert prob < naive

    def test_probabilistic_lop_increases_with_k(self, fig12_panels):
        series = fig12_panels[0].series_by_label("probabilistic")
        assert series.ys[-1] > series.ys[0]

    def test_naive_worst_case_extreme_for_all_k(self, fig12_panels):
        panel_b = fig12_panels[1]
        for _, worst in panel_b.series_by_label("naive").points:
            assert worst > 0.7
