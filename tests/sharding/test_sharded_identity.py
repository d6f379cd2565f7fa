"""Property tests: sharded execution is bit-identical to one federation.

The merge exactness argument (docs/SHARDING.md) pinned as executable
properties: on exact workloads (``p0=0`` schedules or the naive protocol,
integer-valued data), routing statements to per-table shards and merging
partial k-vectors reproduces the unsharded federation's answers exactly —
across seeds, k, shard counts, operations, fan-outs over partitioned
tables, and the cache fast path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.sharding import (
    build_topology,
    exact_config,
    sharded_federation,
    single_federation,
    topology_workload,
)


def values_of(results):
    out = []
    for r in results:
        assert not isinstance(r, QueryRefused), f"unexpected refusal: {r!r}"
        out.append(r.values)
    return out


@pytest.mark.parametrize("shards", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_sharded_bit_identity_sweep(shards, seed):
    """Every operation over every table: sharded == unsharded, bit for bit."""
    topology = build_topology(
        shards=shards, parties_per_shard=3, tables=6, rows_per_table=24,
        partitioned=1, seed=seed,
    )
    statements = topology_workload(topology, 50, seed=seed + 1)
    oracle = single_federation(topology)
    sharded = sharded_federation(topology)
    expected = oracle.execute_many_settled(statements, issuer="t")
    got = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(got) == values_of(expected)


def test_sharded_bit_identity_naive_protocol():
    topology = build_topology(
        shards=3, parties_per_shard=3, tables=4, rows_per_table=20, seed=3
    )
    config = exact_config(protocol="naive")
    statements = topology_workload(topology, 30, seed=9)
    oracle = single_federation(topology, config=config)
    sharded = sharded_federation(topology, config=config)
    expected = oracle.execute_many_settled(statements, issuer="t")
    got = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(got) == values_of(expected)


@given(
    shards=st.integers(min_value=2, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
    smallest=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_property_ranking_merge_is_order_preserving(shards, k, seed, smallest):
    """topk(partition union) == topk(union of partial topks), any split."""
    topology = build_topology(
        shards=shards, parties_per_shard=3, tables=3, rows_per_table=15,
        partitioned=1, seed=seed,
    )
    op = "BOTTOM" if smallest else "TOP"
    statements = [
        f"SELECT {op} {k} value FROM {table}" for table in topology.tables
    ]
    oracle = single_federation(topology)
    sharded = sharded_federation(topology)
    expected = oracle.execute_many_settled(statements, issuer="t")
    got = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(got) == values_of(expected)


@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=15, deadline=None)
def test_property_aggregates_merge_exactly(seed):
    """SUM/COUNT/AVG/MAX/MIN fan-outs combine per-shard partials exactly.

    Integer-valued data keeps the secure-sum mask round trip exact (the
    binade argument in docs/SHARDING.md), so even the additive aggregates
    are bit-identical, not approximately equal.
    """
    topology = build_topology(
        shards=3, parties_per_shard=3, tables=2, rows_per_table=12,
        partitioned=2, seed=seed,
    )
    statements = [
        f"SELECT {op}(value) FROM {table}"
        for op in ("SUM", "COUNT", "AVG", "MAX", "MIN")
        for table in topology.tables
    ]
    oracle = single_federation(topology)
    sharded = sharded_federation(topology)
    expected = oracle.execute_many_settled(statements, issuer="t")
    got = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(got) == values_of(expected)


def test_cache_hits_stay_bit_identical():
    """Round two is served from shard caches and still matches the oracle."""
    topology = build_topology(
        shards=3, parties_per_shard=3, tables=5, rows_per_table=20,
        partitioned=1, seed=5,
    )
    statements = topology_workload(topology, 40, seed=2, repeat_fraction=0.0)
    oracle = single_federation(topology)
    sharded = sharded_federation(topology)
    expected = values_of(oracle.execute_many_settled(statements, issuer="t"))
    first = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(first) == expected
    second = sharded.execute_many_settled(statements, issuer="t")
    assert values_of(second) == expected
    assert all(isinstance(r, QueryOutcome) and r.cached for r in second)
    # The admission fast path agrees with the executed answers, fan-outs
    # included (a fan-out hit requires every shard's partial to be cached).
    for statement, want in zip(statements, expected):
        hit = sharded.try_cached(statement, issuer="t")
        assert hit is not None and hit.values == want


def test_merged_outcome_bookkeeping():
    """Fan-out merges: rounds/simulated max, messages sum, cached all-of."""
    topology = build_topology(
        shards=3, parties_per_shard=3, tables=1, rows_per_table=12,
        partitioned=1, seed=8,
    )
    sharded = sharded_federation(topology)
    statement = "SELECT TOP 3 value FROM part00"
    outcome = sharded.execute_many_settled([statement], issuer="t")[0]
    assert isinstance(outcome, QueryOutcome)
    assert not outcome.cached
    assert outcome.simulated_seconds > 0.0
    assert outcome.messages > 0
    again = sharded.execute_many_settled([statement], issuer="t")[0]
    assert again.cached and again.values == outcome.values


def test_quarter_size_rings_cost_a_quarter_of_the_simulated_seconds():
    """The cost model's sharding identity, pinned exactly.

    Ring time is linear in ring size, so the soak topology's 4 x 3-party
    shards spend exactly 1/4 of the 12-party federation's simulated seconds
    on the same stream.  The gateway soak used to floor this ratio (">= 3x");
    it is arithmetic of the model, not a measurement, so it lives here and
    the bench floors the wall clock instead.
    """
    import asyncio

    from repro.service import QueryService

    topology = build_topology(
        shards=4, parties_per_shard=3, tables=8, rows_per_table=40,
        partitioned=1, seed=2025,
    )
    statements = topology_workload(topology, 2_000, seed=2025, repeat_fraction=0.9)

    def serve(federation):
        service = QueryService(federation, max_queue=512, max_batch=32)

        async def scenario():
            async with service:
                results = []
                for start in range(0, len(statements), 256):
                    chunk = statements[start : start + 256]
                    results += await service.submit_many(chunk)
                return results

        return [r.values for r in asyncio.run(scenario())], service.clock.now()

    flat_values, flat_seconds = serve(single_federation(topology))
    sharded_values, sharded_seconds = serve(sharded_federation(topology))
    assert sharded_values == flat_values
    assert sharded_seconds > 0.0
    assert flat_seconds == pytest.approx(4 * sharded_seconds, rel=1e-12)
