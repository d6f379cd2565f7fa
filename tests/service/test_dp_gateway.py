"""DP through the query service: admission, the cache fast path, metrics."""

import asyncio

import pytest

from repro.privacy.dp import BudgetExhausted, DpPolicy
from repro.service import QueryService
from repro.sharding import TenantPolicy, build_topology, sharded_federation

from .conftest import fresh_federation


class TestSubmission:
    def test_dp_statement_flows_through_the_batch_path(self):
        async def scenario():
            async with QueryService(fresh_federation(dp=DpPolicy(seed=1))) as service:
                return await service.submit(
                    "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)"
                )

        outcome = asyncio.run(scenario())
        assert outcome.protocol.endswith("+dp")
        assert not outcome.cached

    def test_repeat_takes_the_cache_fast_path_free(self):
        async def scenario():
            federation = fresh_federation(dp=DpPolicy(seed=1))
            async with QueryService(federation) as service:
                text = "SELECT SUM(value) FROM data WITH SLO(dp_epsilon=1.0)"
                first = await service.submit(text)
                again = await service.submit(text)
                return federation, service.metrics, first, again

        federation, metrics, first, again = asyncio.run(scenario())
        assert again.cached and again.values == first.values
        assert metrics.cache_fast_hits == 1
        assert federation.dp_gate.accountant.epsilon.spent == 1.0
        assert federation.dp_gate.accountant.free_serves == 1

    def test_exhausted_budget_refuses_at_admission(self):
        # The typed refusal happens before a queue slot is consumed and
        # counts as a shed, exactly like an infeasible SLO.
        async def scenario():
            federation = fresh_federation(
                dp=DpPolicy(epsilon_budget=1.0, seed=1)
            )
            async with QueryService(federation) as service:
                await service.submit(
                    "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=0.8)"
                )
                with pytest.raises(BudgetExhausted, match="epsilon budget"):
                    await service.submit(
                        "SELECT MIN(value) FROM data WITH SLO(dp_epsilon=0.8)"
                    )
                return federation, service.metrics

        federation, metrics = asyncio.run(scenario())
        assert metrics.refused == 1
        assert federation.dp_gate.accountant.epsilon.spent == 0.8

    def test_sharded_federation_behind_the_gateway(self):
        async def scenario():
            topology = build_topology(shards=3, seed=7)
            federation = sharded_federation(topology, dp=DpPolicy(seed=11))
            routed = next(
                t for t in topology.tables if t not in topology.partitioned
            )
            async with QueryService(federation) as service:
                outcome = await service.submit(
                    f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
                    issuer="acme",
                )
                return federation, outcome

        federation, outcome = asyncio.run(scenario())
        assert outcome.protocol.endswith("+dp")
        assert federation.dp_gate.accountant.epsilon.spent == 2.0

    def test_tenant_dp_budget_refuses_at_admission_on_a_sharded_backend(self):
        # The gateway queues the statement; its batch admits it on whichever
        # backend it is handed, and behind shards that admission covers the
        # tenant's meters as well as the federation's.
        async def scenario():
            topology = build_topology(shards=3, seed=7)
            federation = sharded_federation(topology, dp=DpPolicy(seed=11))
            federation.set_tenant("acme", TenantPolicy(dp_epsilon_budget=1.0))
            routed = next(
                t for t in topology.tables if t not in topology.partitioned
            )
            async with QueryService(federation) as service:
                await service.submit(
                    f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=0.8)",
                    issuer="acme",
                )
                with pytest.raises(BudgetExhausted, match="tenant 'acme'"):
                    await service.submit(
                        f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=0.8)",
                        issuer="acme",
                    )
                return federation, service.metrics

        federation, metrics = asyncio.run(scenario())
        assert metrics.refused == 1
        tenant = federation.router.tenant_snapshot()["acme"]
        assert tenant["dp_epsilon_spent"] == 0.8 and tenant["refusals"] == 1
        assert federation.dp_gate.accountant.refusals == 0


class TestMetrics:
    def test_snapshot_carries_the_accountant(self):
        async def scenario():
            federation = fresh_federation(
                dp=DpPolicy(epsilon_budget=4.0, seed=1)
            )
            async with QueryService(federation) as service:
                await service.submit(
                    "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.5)"
                )
                return service.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["dp"]["epsilon_spent"] == 1.5
        assert snapshot["dp"]["epsilon_budget"] == 4.0
        assert snapshot["dp"]["releases"] == 1

    def test_prometheus_export_exposes_dp_series(self):
        async def scenario():
            federation = fresh_federation(
                dp=DpPolicy(epsilon_budget=4.0, seed=1)
            )
            async with QueryService(federation) as service:
                text = "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.5)"
                await service.submit(text)
                await service.submit(text)  # one free serve
                return service.export_metrics().to_prometheus()

        exposition = asyncio.run(scenario())
        assert 'repro_dp_epsilon_spent 1.5' in exposition
        assert 'repro_dp_epsilon_budget 4' in exposition
        assert 'repro_dp_releases_total{outcome="released"} 1' in exposition
        assert 'repro_dp_releases_total{outcome="free-serve"} 1' in exposition
        assert "repro_dp_release_keys 1" in exposition
