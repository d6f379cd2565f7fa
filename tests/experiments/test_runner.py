"""Unit and behavioural tests for repro.experiments.runner."""

import pytest

from repro.core.params import ProtocolParams
from repro.experiments.config import TrialSetup
from repro.experiments.runner import (
    aggregate_coalition_lop,
    aggregate_node_lop,
    mean_final_precision,
    mean_lop_by_round,
    mean_messages,
    mean_precision_by_round,
    run_single_trial,
    run_trials,
)


def small_setup(**overrides) -> TrialSetup:
    defaults = dict(
        n=4,
        k=1,
        params=ProtocolParams.paper_defaults(rounds=6),
        trials=12,
        seed=5,
    )
    defaults.update(overrides)
    return TrialSetup(**defaults)


@pytest.fixture(scope="module")
def results():
    return run_trials(small_setup())


class TestRunTrials:
    def test_trial_count(self, results):
        assert len(results) == 12

    def test_trials_differ(self, results):
        finals = {tuple(r.final_vector) for r in results}
        assert len(finals) > 1  # fresh data per trial

    def test_single_trial_reproducible(self):
        setup = small_setup()
        a = run_single_trial(setup, 3)
        b = run_single_trial(setup, 3)
        assert a.final_vector == b.final_vector
        assert a.local_vectors == b.local_vectors

    def test_runs_are_exact_with_enough_rounds(self, results):
        assert mean_final_precision(results) == 1.0


class TestAggregation:
    def test_precision_by_round_monotone(self, results):
        points = mean_precision_by_round(results, 6)
        ys = [y for _, y in points]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_lop_by_round_shape(self, results):
        points = mean_lop_by_round(results, 6)
        assert [x for x, _ in points] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        # p0=1 -> zero loss in round 1.
        assert points[0][1] == 0.0
        assert all(0.0 <= y <= 1.0 for _, y in points)

    def test_aggregate_node_lop_bounds(self, results):
        average, worst = aggregate_node_lop(results)
        assert 0.0 <= average <= worst <= 1.0

    def test_aggregate_coalition_dominates_single(self, results):
        avg_single, _ = aggregate_node_lop(results)
        avg_coalition, _ = aggregate_coalition_lop(results)
        assert avg_coalition >= avg_single

    def test_mean_messages(self, results):
        # 4 nodes x 6 rounds + 4 result messages, identical every trial.
        assert mean_messages(results) == 4 * 6 + 4

    def test_empty_aggregation_rejected(self):
        for func in (
            lambda: mean_precision_by_round([], 3),
            lambda: mean_lop_by_round([], 3),
            lambda: aggregate_node_lop([]),
            lambda: aggregate_coalition_lop([]),
            lambda: mean_final_precision([]),
            lambda: mean_messages([]),
        ):
            with pytest.raises(ValueError, match="no results"):
                func()


class TestAnalyticConvergence:
    def test_naive_average_converges_to_closed_form(self):
        # The measured naive average converges to the estimator's exact
        # expectation (H_n - 1)/n — the anchor tying harness to analysis.
        from repro.analysis.privacy_bounds import naive_estimator_average

        results = run_trials(small_setup(protocol="naive", trials=400, n=4))
        average, _ = aggregate_node_lop(results)
        assert average == pytest.approx(naive_estimator_average(4), abs=0.03)


class TestWorstCaseAggregationOrder:
    def test_fixed_start_naive_has_extreme_worst_case(self):
        naive = run_trials(small_setup(protocol="naive", trials=30))
        anonymous = run_trials(small_setup(protocol="anonymous-naive", trials=30))
        _, naive_worst = aggregate_node_lop(naive)
        _, anon_worst = aggregate_node_lop(anonymous)
        # The per-node-first aggregation is what exposes the fixed starter.
        assert naive_worst > 0.6
        assert anon_worst < naive_worst
