"""DP across shards: flat/sharded parity, shard attribution, tenant budgets."""

import pytest

from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.privacy.dp import BudgetExhausted, DpPolicy
from repro.sharding import TenantPolicy, build_topology, sharded_federation
from repro.sharding.topology import single_federation


def topology_twins(dp: DpPolicy, shards: int = 3, seed: int = 7):
    """One flat and one sharded federation over identical topologies."""
    topology = build_topology(shards=shards, seed=seed)
    flat = single_federation(topology, dp=dp)
    shard = sharded_federation(topology, dp=dp)
    return topology, flat, shard


class TestFlatShardedParity:
    def test_answers_and_ledgers_are_byte_identical(self):
        topology, flat, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        part = topology.partitioned[0]
        statements = [
            f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
            f"SELECT SUM(value) FROM {part} WITH SLO(dp_epsilon=1.0, dp_delta=1e-6)",
            f"SELECT TOP 3 value FROM {routed} WITH SLO(dp_epsilon=4.0)",
            f"SELECT AVG(value) FROM {routed} WITH SLO(dp_epsilon=1.5)",
            f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",  # repeat
        ]
        flat_results = flat.execute_many_settled(statements)
        shard_results = shard.execute_many_settled(statements)
        assert [r.values for r in flat_results] == [
            r.values for r in shard_results
        ]
        assert [r.cached for r in flat_results] == [r.cached for r in shard_results]
        # The accountants composed identical ledgers, line for line.
        assert (
            flat.dp_gate.accountant.ledger_lines()
            == shard.dp_gate.accountant.ledger_lines()
        )
        assert flat.dp_gate.snapshot() == shard.dp_gate.snapshot()

    def test_refusals_settle_identically(self):
        policy = DpPolicy(epsilon_budget=3.0, seed=11)
        topology, flat, shard = topology_twins(policy)
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        statements = [
            f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
            f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",  # over
            f"SELECT SUM(value) FROM {routed} WITH SLO(dp_epsilon=1.0)",  # fits
        ]
        for fed in (flat, shard):
            results = fed.execute_many_settled(statements)
            assert isinstance(results[0], QueryOutcome)
            assert isinstance(results[1], QueryRefused)
            assert isinstance(results[1].error, BudgetExhausted)
            assert isinstance(results[2], QueryOutcome)
            assert fed.dp_gate.accountant.epsilon.spent == 3.0
            assert fed.dp_gate.accountant.refusals == 1


class TestShardAttribution:
    def test_epsilon_lands_on_the_owning_shard_only(self):
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        part = topology.partitioned[0]
        shard.execute_many_settled(
            [
                f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
                f"SELECT SUM(value) FROM {part} WITH SLO(dp_epsilon=0.5)",
            ]
        )
        owner = shard.router.route(routed)
        by_shard = shard.shard_snapshot()["dp_epsilon_by_shard"]
        # The routed release spent only on its owning shard; the fan-out
        # spent under the "all" key.  No other shard recorded anything.
        assert by_shard == {str(owner): 2.0, "all": 0.5}

    def test_snapshot_carries_the_gate(self):
        topology, _, shard = topology_twins(DpPolicy(epsilon_budget=9.0, seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.execute(f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=1.0)")
        snap = shard.shard_snapshot()["dp"]
        assert snap["epsilon_spent"] == 1.0
        assert snap["epsilon_budget"] == 9.0
        assert snap["releases"] == 1


class TestTenantBudgets:
    def test_tenant_dp_budget_refuses_typed(self):
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.set_tenant("acme", TenantPolicy(dp_epsilon_budget=3.0))
        ok = shard.execute_many_settled(
            [f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)"],
            issuer="acme",
        )[0]
        assert isinstance(ok, QueryOutcome)
        refused = shard.execute_many_settled(
            [f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=2.0)"],
            issuer="acme",
        )[0]
        assert isinstance(refused, QueryRefused)
        assert isinstance(refused.error, BudgetExhausted)
        assert "tenant 'acme'" in str(refused.error)
        snapshot = shard.router.tenant_snapshot()["acme"]
        assert snapshot["dp_epsilon_spent"] == 2.0
        assert snapshot["dp_epsilon_budget"] == 3.0
        assert snapshot["refusals"] == 1
        # The shared federation gate is unmetered here: the *tenant*
        # allowance is what refused, and other tenants are unaffected.
        other = shard.execute_many_settled(
            [f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=2.0)"],
            issuer="bravo",
        )[0]
        assert isinstance(other, QueryOutcome)

    def test_tenant_pending_spans_one_batch(self):
        # Two fresh releases in ONE batch must compose against the tenant
        # budget exactly like two sequential batches.
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.set_tenant("acme", TenantPolicy(dp_epsilon_budget=3.0))
        results = shard.execute_many_settled(
            [
                f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
                f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
            ],
            issuer="acme",
        )
        assert isinstance(results[0], QueryOutcome)
        assert isinstance(results[1], QueryRefused)
        assert shard.router.tenant_snapshot()["acme"]["dp_epsilon_spent"] == 2.0


class TestUnifiedAccounting:
    """LoP and DP spend through one surface: cache hits are free on both.

    The tenant half of the release rules; the topology-independent half (and
    the data-mutation binding) is tests/federation/test_dp_release_rules.py.
    """

    def test_cached_dp_repeat_charges_neither_lop_nor_epsilon(self):
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.set_tenant(
            "acme", TenantPolicy(lop_budget=5.0, dp_epsilon_budget=50.0)
        )
        text = f"SELECT TOP 3 value FROM {routed} WITH SLO(dp_epsilon=2.0)"
        first = shard.execute_many_settled([text], issuer="acme")[0]
        assert isinstance(first, QueryOutcome) and not first.cached
        after_first = shard.router.tenant_snapshot()["acme"]
        assert after_first["lop_spent"] > 0.0  # the inner ranking executed
        assert after_first["dp_epsilon_spent"] == 2.0

        again = shard.execute_many_settled([text], issuer="acme")[0]
        assert isinstance(again, QueryOutcome) and again.cached
        assert again.values == first.values
        # The repeat re-served the release: zero LoP, zero epsilon.
        after_repeat = shard.router.tenant_snapshot()["acme"]
        assert after_repeat["lop_spent"] == after_first["lop_spent"]
        assert after_repeat["dp_epsilon_spent"] == after_first["dp_epsilon_spent"]
        assert after_repeat["refusals"] == 0

    def test_fresh_release_over_cached_inner_spends_epsilon_but_no_lop(self):
        # Invalidate the *release stream* without invalidating the inner
        # answer is impossible from outside — but the converse matters:
        # a fresh noisy release whose inner answers still come from cache
        # runs no protocol, so only epsilon may move, never LoP.  We get
        # there by first caching the bare statement's answer through a DP
        # release at another epsilon (a DP-governed tenant gets no plain
        # query), then issuing the DP form: the inner is a cache hit, yet the
        # release itself is fresh.
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.set_tenant(
            "acme", TenantPolicy(lop_budget=5.0, dp_epsilon_budget=50.0)
        )
        bare = f"SELECT TOP 3 value FROM {routed}"
        shard.execute_many_settled([f"{bare} WITH SLO(dp_epsilon=1.0)"], issuer="acme")
        lop_after_bare = shard.router.tenant_snapshot()["acme"]["lop_spent"]
        assert lop_after_bare > 0.0

        dp_text = f"{bare} WITH SLO(dp_epsilon=2.0)"
        outcome = shard.execute_many_settled([dp_text], issuer="acme")[0]
        assert isinstance(outcome, QueryOutcome)
        snapshot = shard.router.tenant_snapshot()["acme"]
        assert snapshot["dp_epsilon_spent"] == 3.0  # the release is fresh
        assert snapshot["lop_spent"] == pytest.approx(lop_after_bare)  # no protocol ran

    def test_plain_cache_hits_stay_free_for_lop(self):
        # The pre-existing LoP half of the shared rule, pinned alongside.
        topology, _, shard = topology_twins(DpPolicy(seed=11))
        routed = next(t for t in topology.tables if t not in topology.partitioned)
        shard.set_tenant("acme", TenantPolicy(lop_budget=5.0))
        text = f"SELECT TOP 2 value FROM {routed}"
        shard.execute_many_settled([text], issuer="acme")
        spent = shard.router.tenant_snapshot()["acme"]["lop_spent"]
        shard.execute_many_settled([text], issuer="acme")
        assert shard.router.tenant_snapshot()["acme"]["lop_spent"] == spent
