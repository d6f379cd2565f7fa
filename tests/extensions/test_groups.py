"""Unit tests for the group-parallel max extension."""

import random

import pytest

from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.extensions.groups import (
    GroupError,
    partition_into_groups,
    run_grouped_max,
)

QUERY = TopKQuery(table="t", attribute="a", k=1, domain=Domain(1, 10_000))


def vectors_of(n: int, seed: int = 0) -> dict[str, list[float]]:
    rng = random.Random(seed)
    return {f"n{i}": [float(rng.randint(1, 10_000))] for i in range(n)}


class TestPartition:
    def test_partition_covers_all_nodes(self):
        nodes = [f"n{i}" for i in range(17)]
        groups = partition_into_groups(nodes, 5, random.Random(1))
        flattened = sorted(node for group in groups for node in group)
        assert flattened == sorted(nodes)

    def test_no_group_below_three(self):
        for n in range(7, 40):
            groups = partition_into_groups(
                [f"n{i}" for i in range(n)], 4, random.Random(n)
            )
            assert all(len(g) >= 3 for g in groups)

    def test_group_size_validated(self):
        with pytest.raises(GroupError, match="groups must have"):
            partition_into_groups(["a", "b", "c"], 2, random.Random(1))

    def test_too_few_nodes(self):
        with pytest.raises(GroupError, match="at least 3"):
            partition_into_groups(["a", "b"], 3, random.Random(1))


class TestGroupedMax:
    def test_k1_only(self):
        query = TopKQuery(table="t", attribute="a", k=2, domain=Domain(1, 10_000))
        with pytest.raises(GroupError, match="k=1"):
            run_grouped_max(vectors_of(10), query)

    def test_correct_with_combiner(self):
        vectors = vectors_of(30, seed=4)
        outcome = run_grouped_max(vectors, QUERY, group_size=8, seed=7)
        assert outcome.combiner_result is not None
        assert outcome.final_vector[0] == max(v[0] for v in vectors.values())

    def test_correct_without_combiner(self):
        vectors = vectors_of(7, seed=5)
        outcome = run_grouped_max(vectors, QUERY, group_size=4, seed=7)
        assert outcome.combiner_result is None
        assert outcome.final_vector[0] == max(v[0] for v in vectors.values())

    def test_delegates_come_from_their_groups(self):
        outcome = run_grouped_max(vectors_of(24, seed=1), QUERY, group_size=6, seed=2)
        for delegate, group in zip(outcome.delegates, outcome.groups):
            assert delegate in group

    def test_wall_clock_below_flat_ring(self):
        # The point of grouping: parallel groups shorten simulated time for
        # large n even though total messages are comparable.
        from repro.core.driver import RunConfig, run_protocol_on_vectors

        vectors = vectors_of(64, seed=9)
        params = ProtocolParams.paper_defaults()
        flat = run_protocol_on_vectors(vectors, QUERY, RunConfig(params=params, seed=3))
        grouped = run_grouped_max(vectors, QUERY, group_size=8, params=params, seed=3)
        assert grouped.simulated_seconds < flat.simulated_seconds

    def test_deterministic_with_seed(self):
        vectors = vectors_of(20, seed=2)
        a = run_grouped_max(vectors, QUERY, group_size=5, seed=11)
        b = run_grouped_max(vectors, QUERY, group_size=5, seed=11)
        assert a.final_vector[0] == b.final_vector[0]
        assert a.groups == b.groups
        assert a.delegates == b.delegates


class TestGroupedTopK:
    def test_grouped_topk_matches_flat_truth(self):
        import random as rng_module

        from repro.extensions.groups import run_grouped_topk

        rng = rng_module.Random(8)
        vectors = {
            f"n{i}": [float(rng.randint(1, 10_000)) for _ in range(3)]
            for i in range(27)
        }
        query = TopKQuery(table="t", attribute="a", k=4, domain=Domain(1, 10_000))
        outcome = run_grouped_topk(vectors, query, group_size=6, seed=5)
        truth = sorted((v for vs in vectors.values() for v in vs), reverse=True)[:4]
        assert outcome.final_vector == truth
        assert outcome.combiner_result is not None

    def test_grouped_topk_without_combiner(self):
        from repro.extensions.groups import run_grouped_topk

        vectors = {f"n{i}": [float(100 + i)] for i in range(6)}
        query = TopKQuery(table="t", attribute="a", k=2, domain=Domain(1, 10_000))
        outcome = run_grouped_topk(vectors, query, group_size=4, seed=6)
        assert outcome.combiner_result is None
        assert outcome.final_vector == [105.0, 104.0]

    def test_max_wrapper_enforces_k1(self):
        query = TopKQuery(table="t", attribute="a", k=2, domain=Domain(1, 10_000))
        with pytest.raises(GroupError, match="run_grouped_topk"):
            run_grouped_max(vectors_of(10), query)
