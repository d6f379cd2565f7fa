"""Cross-module integration tests: databases -> protocol -> privacy analysis.

These exercise the full public workflow a downstream user would run,
including the scenarios the paper's introduction motivates (competing
retailers, government agencies).
"""

import random

import pytest

from repro import (
    ANONYMOUS_NAIVE,
    NAIVE,
    PROBABILISTIC,
    DataGenerator,
    PrivateDatabase,
    RunConfig,
    Schema,
    TopKQuery,
    average_lop,
    database_from_values,
    run_topk_query,
    worst_case_lop,
)
from repro.network.failures import FailureInjector


class TestRetailScenario:
    """Competing retailers find top sales without pooling their books."""

    @pytest.fixture()
    def retailers(self):
        rng = random.Random(99)
        databases = []
        for name in ("acme", "bravo", "corex", "delta", "emporium"):
            db = PrivateDatabase(name)
            table = db.create_table(
                "sales", Schema.of(("revenue", "INTEGER"), ("store", "TEXT"))
            )
            table.insert_many(
                {"revenue": rng.randint(1, 10_000), "store": f"s{i}"}
                for i in range(50)
            )
            databases.append(db)
        return databases

    def test_top5_revenue(self, retailers):
        query = TopKQuery(table="sales", attribute="revenue", k=5)
        result = run_topk_query(retailers, query, RunConfig(seed=12))
        truth = sorted(
            (
                v
                for db in retailers
                for v in db.table("sales").project("revenue")
            ),
            reverse=True,
        )[:5]
        assert result.answer() == truth
        assert result.precision() == 1.0

    def test_each_retailer_learns_the_answer(self, retailers):
        query = TopKQuery(table="sales", attribute="revenue", k=1)
        result = run_topk_query(retailers, query, RunConfig(seed=13))
        # The RESULT broadcast reached every ring member.
        for db in retailers:
            assert any(
                o.kind == "result" and o.receiver == db.owner
                for o in result.event_log
            )

    def test_privacy_dominates_naive(self, retailers):
        query = TopKQuery(table="sales", attribute="revenue", k=1)
        lop = {}
        for protocol in (PROBABILISTIC, NAIVE):
            totals = 0.0
            for seed in range(10):
                result = run_topk_query(
                    retailers, query, RunConfig(protocol=protocol, seed=seed)
                )
                totals += average_lop(result)
            lop[protocol] = totals / 10
        assert lop[PROBABILISTIC] < lop[NAIVE]


class TestDistributions:
    @pytest.mark.parametrize("distribution", ["uniform", "normal", "zipf"])
    def test_protocol_exact_for_all_distributions(self, distribution):
        gen = DataGenerator(distribution=distribution, rng=random.Random(5))
        dbs = [
            database_from_values(f"node{i}", values)
            for i, values in enumerate(gen.node_datasets(6, 40))
        ]
        query = TopKQuery(table="data", attribute="value", k=4)
        result = run_topk_query(dbs, query, RunConfig(seed=5))
        assert result.precision() == 1.0


class TestProtocolMatrix:
    @pytest.mark.parametrize("protocol", [PROBABILISTIC, NAIVE, ANONYMOUS_NAIVE])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("on_session", [False, True])
    def test_all_combinations_exact(self, protocol, k, on_session):
        dbs = [
            database_from_values(f"org{i}", values)
            for i, values in enumerate(
                [[10, 800], [9000, 20], [7000, 6500], [5, 6]]
            )
        ]
        query = TopKQuery(table="data", attribute="value", k=k)
        # An idle injector obliges the session; without one a kernel runs.
        failures = FailureInjector() if on_session else None
        config = RunConfig(protocol=protocol, failures=failures, seed=31)
        result = run_topk_query(dbs, query, config)
        assert result.precision() == 1.0


class TestScale:
    def test_hundred_nodes_converges(self):
        gen = DataGenerator(rng=random.Random(8))
        vectors = {
            f"n{i}": [float(v) for v in values]
            for i, values in enumerate(gen.node_datasets(100, 5))
        }
        from repro import run_protocol_on_vectors

        query = TopKQuery(table="t", attribute="v", k=3)
        result = run_protocol_on_vectors(vectors, query, RunConfig(seed=44))
        merged = sorted((v for vs in vectors.values() for v in vs), reverse=True)
        assert result.final_vector == merged[:3]
        # Message volume is n * (rounds + 1): linear in n, not quadratic.
        assert result.stats.messages_total == 100 * (result.rounds_executed + 1)

    def test_worst_case_lop_shrinks_with_scale(self):
        gen = DataGenerator(rng=random.Random(9))
        from repro import run_protocol_on_vectors

        query = TopKQuery(table="t", attribute="v", k=1)
        worsts = {}
        for n in (5, 50):
            totals = 0.0
            for seed in range(8):
                vectors = {
                    f"n{i}": [float(v) for v in values]
                    for i, values in enumerate(gen.node_datasets(n, 3))
                }
                result = run_protocol_on_vectors(vectors, query, RunConfig(seed=seed))
                totals += worst_case_lop(result)
            worsts[n] = totals / 8
        assert worsts[50] <= worsts[5]


class TestFaultTolerance:
    def test_lossless_run_with_injector_configured(self):
        # An injector with no crashes and zero drop probability must not
        # perturb the protocol.
        dbs = [database_from_values(f"org{i}", [i * 100 + 1]) for i in range(4)]
        query = TopKQuery(table="data", attribute="value", k=1)
        config = RunConfig(seed=2, failures=FailureInjector())
        result = run_topk_query(dbs, query, config)
        assert result.final_vector == [301.0]

    def test_ring_repair_supports_reconstruction(self):
        # The repair path: a ring without the failed node keeps functioning.
        from repro.network.ring import RingTopology

        ring = RingTopology([f"n{i}" for i in range(5)])
        repaired = ring.repair("n2")
        assert len(repaired) == 4
        walk = repaired.walk_from("n0")
        assert "n2" not in walk
