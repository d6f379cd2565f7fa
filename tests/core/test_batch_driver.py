"""Tests for the pipelined batch driver (run_many_on_vectors / run_topk_queries).

The throughput engine's core claim: a batch of independent queries on one
shared transport is (a) bit-identical per query to running each alone, and
(b) completes in simulated time close to the slowest query, not the sum.
"""

import pytest

from repro.core.driver import (
    NAIVE,
    DriverError,
    RunConfig,
    run_many_on_vectors,
    run_protocol_on_vectors,
    run_topk_queries,
)
from repro.core.params import ProtocolParams
from repro.database.database import database_from_values
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector

from ..conftest import make_vectors

DOMAIN = Domain(1, 10_000)


def query(k=1, smallest=False):
    return TopKQuery(table="t", attribute="a", k=k, domain=DOMAIN, smallest=smallest)


def config(seed, protocol=None, rounds=6):
    params = ProtocolParams.paper_defaults(rounds=rounds)
    kwargs = {"params": params, "seed": seed}
    if protocol is not None:
        kwargs["protocol"] = protocol
    return RunConfig(**kwargs)


VALUES = [120, 4800, 9100, 77, 2600]


class TestBatchParity:
    """Each batched query is bit-identical to its solo run."""

    def test_identical_results_solo_vs_batched(self):
        jobs = [
            (make_vectors(VALUES), query(k=2), config(seed=s)) for s in range(4)
        ]
        batched = run_many_on_vectors(jobs)
        for (vectors, q, cfg), result in zip(jobs, batched):
            solo = run_protocol_on_vectors(vectors, q, cfg)
            assert result.final_vector == solo.final_vector
            assert result.ring_order == solo.ring_order
            assert result.starter == solo.starter
            assert result.rounds_executed == solo.rounds_executed
            assert result.round_snapshots == solo.round_snapshots
            assert (
                result.stats.messages_total == solo.stats.messages_total
            )

    def test_mixed_protocols_and_queries_in_one_batch(self):
        jobs = [
            (make_vectors(VALUES), query(k=2), config(seed=1)),
            (make_vectors(VALUES), query(k=1, smallest=True), config(seed=2)),
            (make_vectors(VALUES), query(k=3), config(seed=3, protocol=NAIVE)),
        ]
        results = run_many_on_vectors(jobs)
        assert results[0].answer() == [9100.0, 4800.0]
        assert results[1].answer() == [77.0]
        assert results[2].answer() == [9100.0, 4800.0, 2600.0]
        assert results[2].protocol == NAIVE

    def test_empty_batch(self):
        assert run_many_on_vectors([]) == []


class TestPipelining:
    def test_batch_completes_in_max_not_sum(self):
        # All queries start at simulated t=0 and interleave, so the batch's
        # completion time is ~max over queries, not the sum.
        jobs = [
            (make_vectors(VALUES), query(k=2), config(seed=s)) for s in range(6)
        ]
        batched = run_many_on_vectors(jobs)
        solo_times = [
            run_protocol_on_vectors(v, q, c).simulated_seconds for v, q, c in jobs
        ]
        batch_time = max(r.simulated_seconds for r in batched)
        assert batch_time == pytest.approx(max(solo_times))
        assert batch_time < sum(solo_times)

    def test_per_query_simulated_times_match_solo(self):
        jobs = [
            (make_vectors(VALUES), query(k=1), config(seed=s)) for s in (11, 12)
        ]
        batched = run_many_on_vectors(jobs)
        for (v, q, c), result in zip(jobs, batched):
            solo = run_protocol_on_vectors(v, q, c)
            assert result.simulated_seconds == pytest.approx(
                solo.simulated_seconds
            )


class TestBatchValidation:
    def test_mixed_transport_settings_rejected(self):
        # Two injectors, even two idle ones, are two transports' worth.
        first = RunConfig(seed=1, failures=FailureInjector())
        second = RunConfig(seed=2, failures=FailureInjector())
        with pytest.raises(DriverError, match="share transport settings"):
            run_many_on_vectors(
                [
                    (make_vectors(VALUES), query(), first),
                    (make_vectors(VALUES), query(), second),
                ]
            )

    def test_queries_configs_length_mismatch(self):
        dbs = [database_from_values(f"n{i}", VALUES) for i in range(3)]
        with pytest.raises(DriverError, match="queries but"):
            run_topk_queries(dbs, [query()], [])

    def test_duplicate_owners_rejected(self):
        dbs = [
            database_from_values("dup", VALUES),
            database_from_values("dup", VALUES),
            database_from_values("other", VALUES),
        ]
        with pytest.raises(DriverError, match="duplicate database owners"):
            run_topk_queries(dbs, [query()], [config(seed=1)])


class TestRunTopkQueries:
    def test_database_level_batch(self):
        dbs = [
            database_from_values("a", [100, 900]),
            database_from_values("b", [9000, 40]),
            database_from_values("c", [7000, 3]),
        ]
        db_query = lambda k, smallest=False: TopKQuery(
            table="data", attribute="value", k=k, domain=DOMAIN, smallest=smallest
        )
        results = run_topk_queries(
            dbs,
            [db_query(k=2), db_query(k=1, smallest=True)],
            [config(seed=5), config(seed=6)],
        )
        assert results[0].answer() == [9000.0, 7000.0]
        assert results[1].answer() == [3.0]
