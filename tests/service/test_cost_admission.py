"""Cost-aware admission: planning, downgrade, shedding, and the ledger.

Exercises the gateway's planner integration under load: queries carrying
SLOs are planned at admission, downgraded to economy plans when the cost
backlog would breach the budget, shed with a typed ``Overloaded`` when even
economy doesn't fit, and refused with ``PlanInfeasible`` when no plan
exists at all.  Predicted-vs-actual accuracy is asserted to the same <20%
drift bound the planner-smoke CI job enforces (measured: exactly 0).
"""

import asyncio

import pytest

from repro.planner import PlanInfeasible
from repro.service import Overloaded, QueryService

from .conftest import fresh_federation

SLO_TOP = "SELECT TOP 3 value FROM data WITH SLO(deadline=5.0)"


class TestPlannedAdmission:
    def test_slo_query_executes_and_records_accuracy(self):
        async def scenario():
            async with QueryService(fresh_federation()) as service:
                outcome = await service.submit(SLO_TOP)
                return service, outcome

        service, outcome = asyncio.run(scenario())
        assert outcome.values == (9000.0, 7000.0, 6500.0)
        ledger = service.accuracy
        assert ledger.recorded == 1
        for metric in ("rounds", "messages", "latency"):
            assert ledger.drift(metric) < 0.2
        assert not ledger.lop_bound_exceeded

    def test_infeasible_slo_is_a_typed_refusal(self):
        async def scenario():
            async with QueryService(fresh_federation()) as service:
                with pytest.raises(PlanInfeasible):
                    await service.submit(
                        "SELECT TOP 3 value FROM data WITH SLO(deadline=0.004)"
                    )
                return service.metrics.plan_infeasible

        assert asyncio.run(scenario()) == 1

    def test_metrics_snapshot_carries_planner_section(self):
        async def scenario():
            async with QueryService(fresh_federation()) as service:
                await service.submit(SLO_TOP)
                return service.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        planner = snapshot["planner"]
        assert planner["recorded"] == 1
        assert planner["rounds_drift"] < 0.2
        assert planner["messages_drift"] < 0.2
        assert planner["latency_drift"] < 0.2
        assert planner["lop_bound_exceeded"] is False


class TestCostBudget:
    def test_downgrade_under_load(self):
        # A budget sized between the quality and economy costs: the first
        # admitted query fills the backlog, later ones downgrade to the
        # cheaper economy plan instead of being shed outright.
        async def scenario():
            federation = fresh_federation()
            async with QueryService(
                federation, cost_budget_seconds=0.15, max_batch=4
            ) as service:
                texts = [
                    f"SELECT TOP {k} value FROM data "
                    "WITH SLO(deadline=5.0, max_lop=0.9)"
                    for k in (2, 3, 4)
                ]
                tasks = [
                    asyncio.ensure_future(service.submit(t)) for t in texts
                ]
                outcomes = await asyncio.gather(*tasks)
                return service, outcomes

        service, outcomes = asyncio.run(scenario())
        assert all(o.values for o in outcomes)
        assert service.metrics.downgraded >= 1
        assert service.metrics.shed_cost == 0

    def test_budgeted_burst_downgrades_every_statement_and_sheds_none(self):
        # The retired planner bench's burst, pinned exactly instead of
        # floored (">= 1.5x"): a budget below one quality plan's cost
        # downgrades all 16 statements to economy, drops none, changes no
        # answer, and the simulated clock shrinks by the two plans' cost
        # ratio -- arithmetic of the cost model, not a measurement.
        from repro.service.workload import synthetic_federation

        burst = [
            f"SELECT {op} {k} value FROM data WITH SLO(deadline=5.0, max_lop=0.9)"
            for op in ("TOP", "BOTTOM")
            for k in (2, 3, 4, 5, 6, 7, 8, 9)
        ]

        def serve(**service_kwargs):
            service = QueryService(
                synthetic_federation(parties=5, values_per_party=20, seed=2025),
                max_batch=4,
                **service_kwargs,
            )

            async def scenario():
                outcomes = []
                async with service:
                    for wave in range(0, len(burst), 4):
                        outcomes += await service.submit_many(burst[wave : wave + 4])
                return outcomes

            return service, [o.values for o in asyncio.run(scenario())]

        depth_only, quality_values = serve()
        budgeted, economy_values = serve(cost_budget_seconds=0.1)
        assert depth_only.metrics.downgraded == 0
        assert budgeted.metrics.downgraded == len(burst)
        assert budgeted.metrics.shed_cost == budgeted.metrics.shed == 0
        assert economy_values == quality_values
        ledger = budgeted.accuracy.snapshot()
        assert ledger["recorded"] == len(burst)
        assert ledger["rounds_drift"] == ledger["messages_drift"] == 0.0
        assert ledger["latency_drift"] < 1e-9
        assert depth_only.clock.now() == pytest.approx(16 * budgeted.clock.now())

    def test_shed_when_even_economy_breaches_budget(self):
        # Budget below any feasible plan's cost: everything past the
        # backlog check sheds with a typed Overloaded.
        async def scenario():
            async with QueryService(
                fresh_federation(), cost_budget_seconds=0.001
            ) as service:
                with pytest.raises(Overloaded):
                    await service.submit(SLO_TOP)
                return service.metrics

        metrics = asyncio.run(scenario())
        assert metrics.shed_cost == 1
        assert metrics.shed >= 1  # cost sheds roll into the shed total

    def test_no_budget_means_no_downgrade_pressure(self):
        async def scenario():
            async with QueryService(fresh_federation()) as service:
                outcomes = await service.submit_many([SLO_TOP, SLO_TOP])
                return service, outcomes

        service, outcomes = asyncio.run(scenario())
        assert service.metrics.downgraded == 0
        assert service.metrics.shed_cost == 0
        # Second submission is a cache hit: never recorded in the ledger.
        assert sum(1 for o in outcomes if o.cached) == 1
        assert service.accuracy.recorded == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            QueryService(fresh_federation(), cost_budget_seconds=0.0)

    def test_inflight_batch_still_counts_toward_the_backlog(self):
        # A batch popped from the queue is not finished work: while it
        # executes, its summed plan estimates must still back the admission
        # backlog, or admission transiently overshoots the cost budget by
        # up to one full batch.
        async def scenario():
            federation = fresh_federation()
            service = QueryService(federation, cost_budget_seconds=10.0)
            observed: list[float] = []
            real = federation.execute_many_settled

            def spying_execute(statements, **kwargs):
                observed.append(service._cost_backlog())
                return real(statements, **kwargs)

            federation.execute_many_settled = spying_execute
            async with service:
                await service.submit(SLO_TOP)
            return observed, service._cost_backlog()

        observed, after = asyncio.run(scenario())
        assert observed and observed[0] > 0.0  # mid-batch: cost still held
        assert after == 0.0  # settled: the in-flight counter drained


class TestLedgerExport:
    def test_export_metrics_publishes_planner_gauges(self):
        from repro.observability.metrics import MetricsRegistry

        async def scenario():
            async with QueryService(fresh_federation()) as service:
                await service.submit(SLO_TOP)
                registry = MetricsRegistry()
                service.export_metrics(registry)
                return registry.to_prometheus()

        text = asyncio.run(scenario())
        assert "repro_planner_predictions_total" in text
        assert "repro_planner_drift" in text
        assert "repro_planner_lop" in text
