"""Unit and integration tests for the protocol driver."""

import pytest

from repro.core.driver import (
    ANONYMOUS_NAIVE,
    NAIVE,
    PROBABILISTIC,
    DriverError,
    RunConfig,
    run_protocol_on_vectors,
    run_topk_query,
)
from repro.core.params import ProtocolParams
from repro.database.database import database_from_values
from repro.database.query import Domain, TopKQuery

from ..conftest import make_vectors


class TestRunConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(DriverError, match="unknown protocol"):
            RunConfig(protocol="quantum")


class TestValidation:
    def test_requires_three_nodes(self, max_query_k1):
        with pytest.raises(DriverError, match="n >= 3"):
            run_protocol_on_vectors(make_vectors([1, 2]), max_query_k1)

    def test_duplicate_owner_rejected(self, max_query_k1, seeded_config):
        dbs = [database_from_values("same", [1]), database_from_values("same", [2]),
               database_from_values("other", [3])]
        with pytest.raises(DriverError, match="duplicate"):
            run_topk_query(dbs, max_query_k1, seeded_config)


class TestCorrectnessAcrossProtocols:
    @pytest.mark.parametrize("protocol", [PROBABILISTIC, NAIVE, ANONYMOUS_NAIVE])
    def test_max_is_exact(self, protocol, max_query_k1):
        vectors = make_vectors([100, 9000, 50, 7000, 3000])
        config = RunConfig(protocol=protocol, seed=99)
        result = run_protocol_on_vectors(vectors, max_query_k1, config)
        assert result.final_vector == [9000.0]
        assert result.precision() == 1.0

    @pytest.mark.parametrize("protocol", [PROBABILISTIC, NAIVE, ANONYMOUS_NAIVE])
    def test_topk_is_exact(self, protocol, topk_query_k3):
        vectors = {
            "a": [100.0, 90.0, 80.0],
            "b": [9000.0, 10.0],
            "c": [8000.0, 7000.0, 5.0],
        }
        config = RunConfig(protocol=protocol, seed=7)
        result = run_protocol_on_vectors(vectors, topk_query_k3, config)
        assert result.final_vector == [9000.0, 8000.0, 7000.0]

    def test_p0_zero_reduces_to_naive_result(self, max_query_k1):
        # Section 3.3: p0=0 reduces the probabilistic protocol to the naive
        # deterministic one; a single round must already be exact.
        vectors = make_vectors([5, 77, 31, 12])
        params = ProtocolParams.with_randomization(0.0, 0.5, rounds=1)
        config = RunConfig(params=params, seed=1)
        result = run_protocol_on_vectors(vectors, max_query_k1, config)
        assert result.final_vector == [77.0]

    def test_duplicated_maxima_preserved_in_topk(self, topk_query_k3):
        vectors = {"a": [9000.0], "b": [9000.0], "c": [10.0], "d": [9000.0]}
        config = RunConfig(seed=3)
        result = run_protocol_on_vectors(vectors, topk_query_k3, config)
        assert result.final_vector == [9000.0, 9000.0, 9000.0]

    def test_fewer_values_than_k_pads_with_domain_low(self):
        query = TopKQuery(table="t", attribute="a", k=4, domain=Domain(1, 100))
        vectors = {"a": [50.0], "b": [60.0], "c": [70.0]}
        result = run_protocol_on_vectors(vectors, query, RunConfig(seed=2))
        assert result.final_vector == [70.0, 60.0, 50.0, 1.0]

    def test_min_query_returns_smallest(self):
        query = TopKQuery(
            table="t", attribute="a", k=2, domain=Domain(1, 10_000), smallest=True
        )
        vectors = make_vectors([500, 3, 700, 42])
        result = run_protocol_on_vectors(vectors, query, RunConfig(seed=5))
        assert result.answer() == [3.0, 42.0]
        assert result.negated
        assert result.original_query is query

    def test_oversized_local_vectors_truncated_to_local_topk(self, topk_query_k3):
        vectors = {
            "a": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "b": [10.0] * 6,
            "c": [7.0, 8.0],
        }
        result = run_protocol_on_vectors(vectors, topk_query_k3, RunConfig(seed=4))
        assert result.final_vector == [10.0, 10.0, 10.0]


class TestRunMetadata:
    def test_snapshots_per_round(self, max_query_k1):
        params = ProtocolParams.paper_defaults(rounds=4)
        config = RunConfig(params=params, seed=11)
        result = run_protocol_on_vectors(
            make_vectors([10, 20, 30]), max_query_k1, config
        )
        assert sorted(result.round_snapshots) == [1, 2, 3, 4]
        assert result.rounds_executed == 4

    def test_snapshots_monotone_nondecreasing(self, max_query_k1):
        params = ProtocolParams.paper_defaults(rounds=5)
        config = RunConfig(params=params, seed=13)
        result = run_protocol_on_vectors(
            make_vectors([10, 9000, 500, 40]), max_query_k1, config
        )
        values = [result.round_snapshots[r][0] for r in sorted(result.round_snapshots)]
        assert values == sorted(values)

    def test_naive_runs_single_round(self, max_query_k1):
        config = RunConfig(protocol=NAIVE, seed=1)
        result = run_protocol_on_vectors(
            make_vectors([10, 20, 30]), max_query_k1, config
        )
        assert result.rounds_executed == 1

    def test_naive_starter_is_first_canonical_node(self, max_query_k1):
        config = RunConfig(protocol=NAIVE, seed=17)
        result = run_protocol_on_vectors(
            make_vectors([10, 20, 30]), max_query_k1, config
        )
        assert result.starter == "node0"

    def test_anonymous_starter_varies_with_seed(self, max_query_k1):
        starters = set()
        for seed in range(20):
            config = RunConfig(protocol=ANONYMOUS_NAIVE, seed=seed)
            result = run_protocol_on_vectors(
                make_vectors([10, 20, 30, 40]), max_query_k1, config
            )
            starters.add(result.starter)
        assert len(starters) > 1

    def test_deterministic_given_seed(self, topk_query_k3):
        vectors = {f"n{i}": [float(100 * i + 7)] for i in range(6)}
        runs = [
            run_protocol_on_vectors(vectors, topk_query_k3, RunConfig(seed=21))
            for _ in range(2)
        ]
        assert runs[0].final_vector == runs[1].final_vector
        assert runs[0].ring_order == runs[1].ring_order
        assert runs[0].event_log.outputs_of("n3") == runs[1].event_log.outputs_of("n3")

    def test_message_count_matches_rounds(self, max_query_k1):
        params = ProtocolParams.paper_defaults(rounds=3)
        config = RunConfig(params=params, seed=2)
        result = run_protocol_on_vectors(
            make_vectors([1, 2, 3, 4]), max_query_k1, config
        )
        # 4 nodes x 3 rounds tokens + 4 result messages.
        assert result.stats.per_type["token"] == 12
        assert result.stats.per_type["result"] == 4

    def test_simulated_time_positive(self, max_query_k1, seeded_config):
        result = run_protocol_on_vectors(
            make_vectors([1, 2, 3]), max_query_k1, seeded_config
        )
        assert result.simulated_seconds > 0


class TestRemapEachRound:
    def test_ring_history_records_remaps(self, max_query_k1):
        params = ProtocolParams.paper_defaults(rounds=4, remap_each_round=True)
        config = RunConfig(params=params, seed=3)
        result = run_protocol_on_vectors(
            make_vectors(list(range(1, 9))), max_query_k1, config
        )
        assert sorted(result.ring_history) == [1, 2, 3, 4]
        orders = {order for order in result.ring_history.values()}
        assert len(orders) > 1  # at least one remap changed the order

    def test_remap_preserves_correctness(self, topk_query_k3):
        params = ProtocolParams.paper_defaults(rounds=6, remap_each_round=True)
        vectors = {f"n{i}": [float(v)] for i, v in enumerate([5, 900, 42, 7, 860, 3])}
        config = RunConfig(params=params, seed=9)
        result = run_protocol_on_vectors(vectors, topk_query_k3, config)
        assert result.final_vector == [900.0, 860.0, 42.0]


class TestRingBuilder:
    def test_custom_ring_builder_used(self, max_query_k1):
        from repro.network.ring import RingTopology

        fixed_order = ["node2", "node0", "node1", "node3"]
        config = RunConfig(seed=5, ring_builder=lambda ids, rng: RingTopology(fixed_order))
        result = run_protocol_on_vectors(
            make_vectors([10, 20, 30, 40]), max_query_k1, config
        )
        assert list(result.ring_order) == fixed_order
        assert result.final_vector == [40.0]

    def test_ring_builder_must_cover_all_nodes(self, max_query_k1):
        from repro.network.ring import RingTopology

        config = RunConfig(
            seed=5,
            ring_builder=lambda ids, rng: RingTopology(["node0", "node1", "ghost"]),
        )
        with pytest.raises(DriverError, match="exactly the participating nodes"):
            run_protocol_on_vectors(
                make_vectors([10, 20, 30]), max_query_k1, config
            )

    def test_trusted_ring_builder_integrates(self, max_query_k1):
        import random as random_module

        from repro.network.trust import TrustGraph, build_trusted_ring

        vectors = make_vectors([10, 20, 30, 40, 50])
        graph = TrustGraph(sorted(vectors), default=0.3)
        graph.set_trust("node0", "node1", 0.99)

        def builder(ids, rng: random_module.Random):
            return build_trusted_ring(graph, rng)

        config = RunConfig(seed=9, ring_builder=builder)
        result = run_protocol_on_vectors(vectors, max_query_k1, config)
        assert result.final_vector == [50.0]
        ring = result.ring_order
        i0, i1 = ring.index("node0"), ring.index("node1")
        assert abs(i0 - i1) in (1, len(ring) - 1)  # the trusted pair is adjacent


class TestDatabases:
    def test_run_topk_query_over_databases(self, topk_query_k3):
        dbs = [
            database_from_values(f"org{i}", values)
            for i, values in enumerate([[10, 500], [9000], [42, 8000, 3]])
        ]
        query = TopKQuery(table="data", attribute="value", k=3)
        result = run_topk_query(dbs, query, RunConfig(seed=6))
        assert result.final_vector == [9000.0, 8000.0, 500.0]
