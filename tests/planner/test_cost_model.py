"""Cost-model parity: predictions vs measured protocol runs.

The planner's whole authority rests on the cost model agreeing with the
simulator it predicts.  These tests execute real (session-backed) runs
across randomized ``(p0, d, epsilon)`` grids and assert the model's
rounds (Eq. 4), message counts, and simulated latency match *exactly* —
the simulator's clock is messages x hop, so any disagreement is a model
bug, not noise.  The expected-LoP column is a bound on the expectation
(Eq. 6) and is checked as an aggregate over seeds.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.privacy_bounds import expected_lop_bound, naive_average_lop
from repro.core.driver import SESSION, RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams, minimum_rounds
from repro.database.database import database_from_values
from repro.database.generator import DataGenerator
from repro.database.query import PAPER_DOMAIN, TopKQuery
from repro.federation import Federation
from repro.planner import (
    NAIVE,
    PROBABILISTIC,
    Calibration,
    CostModel,
    PredictionLedger,
    QueryPlanner,
)
from repro.privacy.lop import average_lop

P0_GRID = st.sampled_from((0.25, 0.5, 0.75, 1.0))
D_GRID = st.sampled_from((0.125, 0.25, 0.5, 0.75))
EPSILON_GRID = st.sampled_from((1e-2, 1e-3, 1e-4))


def _vectors(n: int, seed: int) -> dict[str, list[float]]:
    generator = DataGenerator(rng=random.Random(seed))
    return {
        f"n{i}": [float(v) for v in vs]
        for i, vs in enumerate(generator.node_datasets(n, 4))
    }


class TestRankingParity:
    @settings(max_examples=20, deadline=None)
    @given(p0=P0_GRID, d=D_GRID, epsilon=EPSILON_GRID, n=st.integers(3, 8))
    def test_rounds_messages_latency_match_measured(self, p0, d, epsilon, n):
        params = ProtocolParams.with_randomization(p0, d, epsilon=epsilon)
        estimate = CostModel().ranking_estimate(
            n_parties=n, k=2, protocol=PROBABILISTIC, params=params
        )
        assert estimate.rounds == minimum_rounds(p0, d, epsilon)

        query = TopKQuery(table="t", attribute="v", k=2, domain=PAPER_DOMAIN)
        result = run_protocol_on_vectors(
            _vectors(n, seed=n), query, RunConfig(params=params, seed=11),
            backend=SESSION,
        )
        assert result.rounds_executed == estimate.rounds
        assert result.stats.messages_total == estimate.messages
        assert result.simulated_seconds == pytest.approx(
            estimate.simulated_seconds
        )
        # Bytes are a linear model (overhead + per-value), not a closed
        # form; hold it to the same <20% bound the CI drift check uses.
        assert estimate.bytes == pytest.approx(
            result.stats.bytes_total, rel=0.2
        )

    def test_message_count_is_n_times_rounds_plus_one(self):
        params = ProtocolParams.paper_defaults()
        for n in (3, 5, 16):
            estimate = CostModel().ranking_estimate(
                n_parties=n, k=1, protocol=PROBABILISTIC, params=params
            )
            assert estimate.messages == n * (estimate.rounds + 1)

    def test_naive_protocol_is_one_round(self):
        estimate = CostModel().ranking_estimate(
            n_parties=5, k=3, protocol=NAIVE,
            params=ProtocolParams.paper_defaults(),
        )
        assert estimate.rounds == 1
        assert estimate.messages == 10  # 2n
        assert estimate.expected_lop == pytest.approx(naive_average_lop(5))

    def test_fewer_than_three_parties_rejected(self):
        with pytest.raises(ValueError):
            CostModel().ranking_estimate(
                n_parties=2, k=1, protocol=PROBABILISTIC,
                params=ProtocolParams.paper_defaults(),
            )


class TestExpectedLopBound:
    @settings(max_examples=6, deadline=None)
    @given(p0=st.sampled_from((0.5, 1.0)), d=st.sampled_from((0.25, 0.5)))
    def test_bound_holds_in_aggregate(self, p0, d):
        # Eq. 6 bounds the *expectation*; average the measured LoP over
        # seeds and allow finite-sample slack on top of the bound.
        params = ProtocolParams.with_randomization(p0, d, epsilon=1e-3)
        bound = expected_lop_bound(p0, d)
        query = TopKQuery(table="t", attribute="v", k=1, domain=PAPER_DOMAIN)
        trials = 30
        total = 0.0
        for t in range(trials):
            result = run_protocol_on_vectors(
                _vectors(4, seed=100 + t), query,
                RunConfig(params=params, seed=t),
            )
            total += average_lop(result)
        assert total / trials <= bound + 0.05


class TestLedgerLopScoping:
    """Eq. 6 bounds one item's exposure; the Section 5.3 estimator peaks
    over a node's k items, so only k == 1 runs enter the LoP audit."""

    @staticmethod
    def _record(ledger, plan, measured_lop):
        est = plan.estimate
        ledger.record(
            plan,
            rounds=est.rounds,
            messages=est.messages,
            simulated_seconds=est.simulated_seconds,
            measured_lop=measured_lop,
        )

    def test_multi_value_runs_never_enter_the_lop_audit(self):
        planner = QueryPlanner()
        multi = planner.plan("SELECT TOP 5 value FROM data", parties=5)
        assert multi.estimate.extracted_values == 5
        ledger = PredictionLedger()
        self._record(ledger, multi, measured_lop=0.9)
        assert ledger.recorded == 1  # point metrics still audited
        assert ledger.lop_checked == 0
        assert not ledger.lop_bound_exceeded

    def test_single_extraction_runs_are_audited(self):
        planner = QueryPlanner()
        single = planner.plan("SELECT MAX(value) FROM data", parties=5)
        assert single.estimate.extracted_values == 1
        ledger = PredictionLedger()
        self._record(ledger, single, measured_lop=0.0)
        assert ledger.lop_checked == 1
        assert not ledger.lop_bound_exceeded
        self._record(ledger, single, measured_lop=1.0)
        assert ledger.lop_checked == 2
        assert ledger.lop_bound_exceeded


class TestRecordOutcome:
    """The one audit loop: skip cached, measured LoP from the outcome, record."""

    @staticmethod
    def _federation():
        federation = Federation(domain=PAPER_DOMAIN, seed=7)
        for owner, values in _vectors(4, seed=3).items():
            federation.register(database_from_values(owner, values))
        return federation

    def test_executed_outcome_is_recorded_with_lop_from_its_trace(self, transcripts):
        federation = self._federation()
        text = "SELECT MAX(value) FROM data WITH SLO(deadline=5.0)"
        plan = federation.planner.plan(text, parties=4)
        outcome = federation.execute_many([text])[0]
        ledger = PredictionLedger()
        assert ledger.record_outcome(plan, outcome) is True
        assert ledger.recorded == ledger.lop_checked == 1
        assert ledger.lop_measured_sum == outcome.average_lop
        (run,) = transcripts
        assert outcome.average_lop == average_lop(run)
        assert all(ledger.drift(metric) == 0.0 for metric in ("rounds", "messages"))
        # Predicted as messages x hop_seconds, measured as a running sum of
        # hop delays: the two differ by float rounding only.
        assert ledger.drift("latency") <= 1e-12

    def test_cached_outcome_is_skipped(self):
        federation = self._federation()
        text = "SELECT MAX(value) FROM data WITH SLO(deadline=5.0)"
        plan = federation.planner.plan(text, parties=4)
        federation.execute_many([text])
        repeat = federation.execute_many([text])[0]
        assert repeat.cached
        ledger = PredictionLedger()
        assert ledger.record_outcome(plan, repeat) is False
        assert ledger.recorded == 0

    def test_outcome_without_a_trace_audits_the_point_metrics_only(self):
        # An outcome no single ring produced (a fan-out merge) has no LoP.
        federation = self._federation()
        text = "SELECT MAX(value) FROM data WITH SLO(deadline=5.0)"
        plan = federation.planner.plan(text, parties=4)
        merged = replace(federation.execute_many([text])[0], average_lop=None)
        ledger = PredictionLedger()
        assert ledger.record_outcome(plan, merged) is True
        assert (ledger.recorded, ledger.lop_checked) == (1, 0)


class TestAdditiveParity:
    def test_secure_sum_estimate_matches_coordinator(self):
        # Cross-checked end to end in tests/federation/test_plan_integration;
        # here: the closed forms the estimate is built from.
        model = CostModel()
        sum_estimate = model.additive_estimate(n_parties=6, operation="SUM")
        avg_estimate = model.additive_estimate(n_parties=6, operation="AVG")
        assert sum_estimate.messages == 2 * 6  # one masked ring
        assert avg_estimate.messages == 2 * 2 * 6  # sum ring + count ring
        assert sum_estimate.simulated_seconds == 0.0  # additive path: no clock
        assert sum_estimate.expected_lop == 0.0
        assert sum_estimate.rounds == 1


class TestCalibration:
    def test_defaults_encode_the_simulator_physics(self):
        calibration = Calibration()
        assert calibration.hop_seconds == pytest.approx(0.001)

    def test_bytes_model_tracks_k(self):
        model = CostModel()
        params = ProtocolParams.paper_defaults()
        small = model.ranking_estimate(
            n_parties=4, k=1, protocol=PROBABILISTIC, params=params
        )
        large = model.ranking_estimate(
            n_parties=4, k=10, protocol=PROBABILISTIC, params=params
        )
        assert large.bytes > small.bytes
