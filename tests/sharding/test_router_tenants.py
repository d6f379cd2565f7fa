"""Router placement, per-tenant budgets/rate limits, and epoch invalidation."""

import pytest

from repro.database.database import database_from_values
from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.planner.errors import PlanInfeasible
from repro.privacy.dp import BudgetExhausted
from repro.sharding import (
    ALL_SHARDS,
    ShardError,
    ShardRouter,
    TenantPolicy,
    TenantRateLimited,
    build_topology,
    shard_index,
    sharded_federation,
)

# -- placement ----------------------------------------------------------------


def test_shard_index_is_stable_and_total():
    """SHA-256 placement: deterministic, in range, spread over shards."""
    tables = [f"t{i:02d}" for i in range(64)]
    placed = [shard_index(t, 4) for t in tables]
    assert placed == [shard_index(t, 4) for t in tables]  # stable
    assert set(placed) == {0, 1, 2, 3}  # every shard used at 64 tables
    assert shard_index("anything", 1) == 0
    with pytest.raises(ShardError):
        shard_index("t", 0)


@pytest.mark.parametrize("shards", [1, 2, 3, 5])
def test_shard_tables_agree_with_placement(shards):
    """The per-shard table slices the topology derives once are the router's
    placement: every routed table on exactly its ``shard_index`` shard,
    every partitioned table on every shard, each slice sorted."""
    topology = build_topology(shards=shards, tables=24, partitioned=3, seed=4)
    slices = [topology.shard_tables(shard) for shard in range(shards)]
    for table in topology.tables:
        holders = [shard for shard in range(shards) if table in slices[shard]]
        if table in topology.partitioned:
            assert holders == list(range(shards))
        else:
            assert holders == [shard_index(table, shards)]
    for shard, names in enumerate(slices):
        assert names == tuple(sorted(names))
        assert topology.shard_tables(shard) is names  # derived once, not per call
    for shard in (-1, shards):
        with pytest.raises(ShardError, match="no shard"):
            topology.shard_tables(shard)


def test_router_routes_and_counts():
    router = ShardRouter(3, partitioned=("hot",))
    assert router.route("hot") == ALL_SHARDS
    owned = router.route("t00")
    assert 0 <= owned < 3
    assert router.partitioned_tables == ("hot",)


# -- tenant token bucket ------------------------------------------------------


def test_tenant_rate_limit_is_cross_shard_and_typed():
    router = ShardRouter(2)
    router.set_tenant("alice", TenantPolicy(rate=1.0, burst=2))
    router.take_token("alice", now=0.0)
    router.take_token("alice", now=0.0)
    with pytest.raises(TenantRateLimited):
        router.take_token("alice", now=0.0)
    router.take_token("alice", now=5.0)  # refilled
    router.take_token("bob", now=0.0)  # un-policied tenants are unrestricted
    snapshot = router.tenant_snapshot()
    assert snapshot["alice"]["refusals"] == 1
    assert snapshot["alice"]["queries"] == 4


def test_tenant_rate_limit_refuses_through_the_federation():
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=2, rows_per_table=10, seed=1
    )
    ticks = iter([0.0] * 10)
    sharded = sharded_federation(topology)
    sharded._clock = lambda: next(ticks)
    sharded.set_tenant("alice", TenantPolicy(rate=1.0, burst=2))
    statements = [f"SELECT TOP 1 value FROM {topology.tables[0]}"] * 4
    results = sharded.execute_many_settled(statements, issuer="alice")
    refused = [r for r in results if isinstance(r, QueryRefused)]
    assert len(refused) == 2
    assert all(isinstance(r.error, TenantRateLimited) for r in refused)
    served = [r for r in results if isinstance(r, QueryOutcome)]
    assert len(served) == 2


# -- tenant LoP budget --------------------------------------------------------


def test_tenant_lop_budget_feeds_planner_feasibility():
    """A ranking statement is charged its plan's expected LoP; one whose
    charge is above the remaining budget refuses typed, aggregates stay
    free, and cache hits are never charged."""
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=10, seed=2
    )
    sharded = sharded_federation(topology)
    sharded.set_tenant("alice", TenantPolicy(lop_budget=0.9))
    ranking = f"SELECT TOP 2 value FROM {topology.tables[0]}"

    first = sharded.execute_many_settled([ranking], issuer="alice")[0]
    assert isinstance(first, QueryOutcome)
    spent = sharded.router.tenant("alice").lop_spent
    assert spent > 0.0

    # A cache hit executes nothing and charges nothing.
    again = sharded.execute_many_settled([ranking], issuer="alice")[0]
    assert again.cached
    assert sharded.router.tenant("alice").lop_spent == spent

    # Aggregates are secure sums: free, exactly like the exposure ledger.
    aggregate = f"SELECT SUM(value) FROM {topology.tables[1]}"
    assert isinstance(
        sharded.execute_many_settled([aggregate], issuer="alice")[0],
        QueryOutcome,
    )
    assert sharded.router.tenant("alice").lop_spent == spent

    # Exhaust the budget: fresh ranking statements now refuse typed.
    sharded.router.tenant("alice").lop.charge(1.0)
    fresh = f"SELECT TOP 2 value FROM {topology.tables[2]}"
    refused = sharded.execute_many_settled([fresh], issuer="alice")[0]
    assert isinstance(refused, QueryRefused)
    assert isinstance(refused.error, BudgetExhausted)
    assert refused.error.dimension == "lop"

    # Unbudgeted tenants are untouched by alice's exhaustion.
    other = sharded.execute_many_settled([fresh], issuer="bob")[0]
    assert isinstance(other, QueryOutcome)


def test_unbudgeted_tenants_still_record_lop_spend():
    """LoP mirrors DP accounting: a registered tenant without a budget is
    unmetered but still *records*, so the snapshot shows real spend and a
    budget installed later binds against the history already accrued."""
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=3, rows_per_table=10, seed=3
    )
    sharded = sharded_federation(topology)
    sharded.set_tenant("carol", TenantPolicy(rate=100.0))  # no lop_budget
    ranking = f"SELECT TOP 2 value FROM {topology.tables[0]}"
    outcome = sharded.execute_many_settled([ranking], issuer="carol")[0]
    assert isinstance(outcome, QueryOutcome)
    spent = sharded.router.tenant("carol").lop_spent
    assert spent > 0.0
    assert sharded.router.tenant_snapshot()["carol"]["lop_spent"] > 0.0

    # Cache hits stay free for unbudgeted accounts too.
    again = sharded.execute_many_settled([ranking], issuer="carol")[0]
    assert again.cached
    assert sharded.router.tenant("carol").lop_spent == spent

    # A budget installed later binds against the accrued history: the
    # TenantAccount keeps its meters and ``bind_policy`` points them at it.
    sharded.set_tenant("carol", TenantPolicy(lop_budget=spent))
    assert sharded.router.tenant("carol").lop.refusal(0.01) is not None

    # Tenants never registered at all still spend into the void.
    anon = sharded.execute_many_settled([ranking], issuer="nobody")[0]
    assert isinstance(anon, QueryOutcome)
    assert "nobody" not in sharded.router.tenant_snapshot()


def test_tenant_budget_does_not_mask_unsatisfiable_slo():
    """An SLO the planner cannot meet refuses as PlanInfeasible, not as a
    budget problem, even for a budgeted tenant."""
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=2, rows_per_table=10, seed=3
    )
    sharded = sharded_federation(topology)
    sharded.set_tenant("alice", TenantPolicy(lop_budget=50.0))
    statement = (
        f"SELECT TOP 1 value FROM {topology.tables[0]} "
        "WITH SLO(max_lop=0.0001)"
    )
    result = sharded.execute_many_settled([statement], issuer="alice")[0]
    assert isinstance(result, QueryRefused)
    assert isinstance(result.error, PlanInfeasible)
    assert not isinstance(result.error, BudgetExhausted)


# -- cross-shard cache epochs (regression) ------------------------------------


def test_cache_epoch_invalidation_is_per_shard():
    """Membership changes invalidate exactly the owning shard's answers.

    Regression for the cross-shard staleness hazard: a party joining shard
    A must invalidate A's cached partials (including its contribution to
    fan-outs) while shard B's cache keeps serving its own tables.
    """
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=10,
        partitioned=1, seed=4,
    )
    sharded = sharded_federation(topology)
    # Pick one routed table per shard.
    by_shard = {
        s: next(
            t for t in topology.tables
            if t not in topology.partitioned and shard_index(t, 2) == s
        )
        for s in (0, 1)
    }
    q0 = f"SELECT TOP 1 value FROM {by_shard[0]}"
    q1 = f"SELECT TOP 1 value FROM {by_shard[1]}"
    fan = f"SELECT TOP 1 value FROM {topology.partitioned[0]}"
    before = {
        q: sharded.execute_many_settled([q], issuer="t")[0].values
        for q in (q0, q1, fan)
    }
    assert sharded.try_cached(q0, issuer="t") is not None
    assert sharded.try_cached(fan, issuer="t") is not None

    # A new party with the domain maximum lands on shard 0 (integer rows,
    # matching the topology's INTEGER tables).
    big = 10_000
    db = database_from_values(
        "newcomer", [big], table=by_shard[0], attribute="value"
    )
    for table in topology.shard_tables(0):
        if table != by_shard[0]:
            db.create_table(table, db.table(by_shard[0]).schema)
    with pytest.raises(ShardError, match="no such shard"):  # ``_shard_of``
        sharded.register(db, shard=2)
    sharded.register(db, shard=0)

    # Shard 0's cache dropped: the fan-out misses (one partial is gone)...
    assert sharded.try_cached(q0, issuer="t") is None
    assert sharded.try_cached(fan, issuer="t") is None
    # ...while shard 1 still serves its cached answer.
    assert sharded.try_cached(q1, issuer="t") is not None

    # Re-execution sees the newcomer's value; shard 1's answer is unchanged.
    after0 = sharded.execute_many_settled([q0], issuer="t")[0]
    assert after0.values == (float(big),)
    after1 = sharded.execute_many_settled([q1], issuer="t")[0]
    assert after1.cached and after1.values == before[q1]

    sharded.deregister("newcomer", shard=0)
    assert sharded.try_cached(q0, issuer="t") is None
    restored = sharded.execute_many_settled([q0], issuer="t")[0]
    assert restored.values == before[q0]
