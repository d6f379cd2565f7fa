"""Unit tests for repro.core.results."""

import pytest

from repro.core.driver import RunConfig, run_protocol_on_vectors
from repro.core.params import ProtocolParams
from repro.core.results import ProtocolResult
from repro.database.query import Domain, TopKQuery
from repro.network.events import EventLog
from repro.network.stats import TrafficStats


def make_result(final, locals_, k=2, snapshots=None) -> ProtocolResult:
    query = TopKQuery(table="t", attribute="a", k=k, domain=Domain(1, 100))
    return ProtocolResult(
        query=query,
        protocol="probabilistic",
        final_vector=[float(v) for v in final],
        ring_order=tuple(sorted(locals_)),
        starter=sorted(locals_)[0],
        local_vectors={n: [float(v) for v in vs] for n, vs in locals_.items()},
        round_snapshots=snapshots or {},
        event_log=EventLog(),
        stats=TrafficStats(),
    )


class TestTruth:
    def test_true_topk_merges_local_vectors(self):
        result = make_result([99, 98], {"a": [99.0, 1.0], "b": [98.0], "c": [50.0]})
        assert result.true_topk() == [99.0, 98.0]

    def test_true_topk_pads_when_data_scarce(self):
        result = make_result([50, 1], {"a": [50.0], "b": [], "c": []})
        assert result.true_topk() == [50.0, 1.0]

    def test_n_nodes(self):
        result = make_result([1, 1], {"a": [], "b": [], "c": []})
        assert result.n_nodes == 3


class TestPrecision:
    def test_exact_result(self):
        result = make_result([99, 98], {"a": [99.0], "b": [98.0], "c": [5.0]})
        assert result.precision() == 1.0

    def test_half_right(self):
        result = make_result([99, 42], {"a": [99.0], "b": [98.0], "c": [5.0]})
        assert result.precision() == 0.5

    def test_duplicates_counted_with_multiplicity(self):
        result = make_result([99, 99], {"a": [99.0], "b": [99.0], "c": [5.0]})
        assert result.precision() == 1.0
        wrong = make_result([99, 42], {"a": [99.0], "b": [99.0], "c": [5.0]})
        assert wrong.precision() == 0.5


class TestRoundPrecision:
    def test_precision_at_round_uses_latest_snapshot(self):
        snapshots = {1: [10.0, 1.0], 2: [99.0, 10.0], 3: [99.0, 98.0]}
        result = make_result(
            [99, 98], {"a": [99.0], "b": [98.0], "c": [10.0]}, snapshots=snapshots
        )
        assert result.precision_at_round(1) == 0.0
        assert result.precision_at_round(2) == 0.5
        assert result.precision_at_round(3) == 1.0

    def test_rounds_beyond_last_hold_final_value(self):
        snapshots = {1: [99.0, 98.0]}
        result = make_result(
            [99, 98], {"a": [99.0], "b": [98.0], "c": [10.0]}, snapshots=snapshots
        )
        assert result.precision_at_round(10) == 1.0

    def test_round_zero_scores_identity_vector(self):
        snapshots = {1: [99.0, 98.0]}
        result = make_result(
            [99, 98], {"a": [99.0], "b": [98.0], "c": [10.0]}, snapshots=snapshots
        )
        assert result.precision_at_round(0) == 0.0

    def test_no_snapshots_raises(self):
        result = make_result([99, 98], {"a": [99.0], "b": [98.0], "c": [1.0]})
        with pytest.raises(ValueError, match="no round snapshots"):
            result.precision_at_round(1)


class TestAnswer:
    def test_plain_answer_is_final_vector(self):
        result = make_result([99, 98], {"a": [99.0], "b": [98.0], "c": [1.0]})
        assert result.answer() == [99.0, 98.0]
        assert result.answer() is not result.final_vector  # defensive copy

    def test_negated_answer_flips_back_ascending(self):
        query = TopKQuery(
            table="t", attribute="a", k=2, domain=Domain(1, 100), smallest=True
        )
        vectors = {"a": [5.0], "b": [70.0], "c": [30.0]}
        result = run_protocol_on_vectors(
            vectors, query, RunConfig(params=ProtocolParams.paper_defaults(), seed=4)
        )
        assert result.answer() == [5.0, 30.0]
        assert result.final_vector == [-5.0, -30.0]


class TestExposureMemo:
    """The LoP profile memo rides on the result without being part of it."""

    def run(self) -> ProtocolResult:
        query = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 100))
        vectors = {"a": [10.0], "b": [40.0], "c": [70.0], "d": [20.0]}
        return run_protocol_on_vectors(
            vectors, query, RunConfig(params=ProtocolParams.paper_defaults(), seed=5)
        )

    def test_memo_takes_no_part_in_equality_or_pickles(self):
        import copy
        import pickle

        from repro.privacy.lop import average_lop, exposure_profile

        scored = self.run()
        unscored = copy.copy(scored)
        profile = exposure_profile(scored)
        assert exposure_profile(scored) is profile  # second read is the memo
        assert unscored._exposure is None
        assert scored == unscored
        shipped = pickle.loads(pickle.dumps(scored))
        assert shipped._exposure is None
        assert average_lop(shipped) == average_lop(scored)
