"""One plan per statement, made by the federation that audits it.

* A statement with objectives runs the same plan on every path: flat, local
  shards, worker processes, through the gateway or called directly.  The
  sharded federation plans it once over all its parties and hands each
  shard the plan in the shard frame; shards never plan.
* A tenant's LoP meter is charged the expected LoP of the plan that runs:
  a plain statement's is its base configuration's, estimated by the cost
  model, and a charge above the remaining budget refuses.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.federation.outcomes import QueryOutcome, QueryRefused
from repro.planner import CostModel, PlanInfeasible, parse_spec
from repro.service import QueryService
from repro.sharding import (
    TenantBudgetExceeded,
    TenantPolicy,
    build_topology,
    sharded_federation,
)
from repro.sharding.topology import exact_config, single_federation

#: Planned for the deployment's six parties, it runs 12 rounds: a shard
#: planning for its own three ran 4.
FANOUT = "SELECT TOP 2 value FROM part00 WITH SLO(max_rounds=12)"


def _partitioned():
    return build_topology(
        shards=2, parties_per_shard=3, tables=3, rows_per_table=12,
        partitioned=1, seed=23,
    )


def _deploy(kind: str, topology, **kwargs):
    if kind == "flat":
        return single_federation(topology, **kwargs)
    return sharded_federation(topology, processes=kind == "processes", **kwargs)


def _close(federation) -> None:
    close = getattr(federation, "close", None)
    if close is not None:
        close()


def _served(federation, way: str):
    if way == "execute":
        return federation.execute(FANOUT)
    if way == "execute_many_settled":
        return federation.execute_many_settled([FANOUT])[0]

    async def scenario():
        async with QueryService(federation) as service:
            return await service.submit(FANOUT)

    return asyncio.run(scenario())


@pytest.mark.parametrize("way", ["execute", "execute_many_settled", "service"])
@pytest.mark.parametrize("kind", ["flat", "local", "processes"])
def test_a_planned_fanout_runs_one_plan_on_every_path(kind, way):
    federation = _deploy(kind, _partitioned())
    try:
        outcome = _served(federation, way)
    finally:
        _close(federation)
    assert isinstance(outcome, QueryOutcome) and not outcome.cached
    assert (outcome.rounds, outcome.messages) == (12, 78)


@pytest.mark.parametrize("kind", ["flat", "local", "processes"])
def test_a_cached_answer_satisfies_an_unsatisfiable_slo(kind):
    # A hit is never planned: its already-public answer meets any objective,
    # on a sharded deployment as on a flat one.
    federation = _deploy(kind, _partitioned())
    try:
        federation.execute("SELECT TOP 2 value FROM t00")
        hit = federation.execute_many_settled(
            ["SELECT TOP 2 value FROM t00 WITH SLO(deadline=0.004)"]
        )[0]
        miss = federation.execute_many_settled(
            ["SELECT TOP 3 value FROM t00 WITH SLO(deadline=0.004)"]
        )[0]
    finally:
        _close(federation)
    assert isinstance(hit, QueryOutcome) and hit.cached
    assert isinstance(miss, QueryRefused) and isinstance(miss.error, PlanInfeasible)


def test_shards_never_plan():
    topology = _partitioned()
    federation = _deploy("local", topology)
    asked = []
    for shard in federation.shards:
        planner = shard.federation.planner
        planner.plan = lambda *args, _plan=planner.plan, **kwargs: (
            asked.append(args) or _plan(*args, **kwargs)
        )
    routed = next(t for t in topology.tables if t not in topology.partitioned)
    settled = federation.execute_many_settled(
        [
            FANOUT,
            f"SELECT MAX(value) FROM {routed} WITH SLO(deadline=5.0)",
            "SELECT AVG(value) FROM part00 WITH SLO(deadline=1.0)",
            f"SELECT TOP 3 value FROM {routed} WITH SLO(dp_epsilon=1.0)",
        ]
    )
    assert all(isinstance(outcome, QueryOutcome) for outcome in settled)
    assert asked == []


# -- tenant charges ------------------------------------------------------------


def _tenant_topology():
    return build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=10, seed=2
    )


@pytest.mark.parametrize("processes", [False, True], ids=["local", "processes"])
def test_a_plain_statement_is_charged_its_base_configuration(processes):
    federation = sharded_federation(_tenant_topology(), processes=processes)
    plain = "SELECT TOP 2 value FROM t00"
    try:
        # The base configuration never randomizes: Eq. 5 over the six
        # parties, 0.311, which a 0.3 budget cannot pay.
        expected = CostModel().ranking_estimate(
            n_parties=6, k=2, protocol="probabilistic", params=exact_config().params
        ).expected_lop
        assert expected == pytest.approx(0.3111, abs=1e-4)
        federation.set_tenant("poor", TenantPolicy(lop_budget=0.3))
        refused = federation.execute_many_settled([plain], issuer="poor")[0]
        assert isinstance(refused, QueryRefused)
        assert isinstance(refused.error, TenantBudgetExceeded)
        assert federation.router.tenant("poor").lop_spent == 0.0

        federation.set_tenant("rich", TenantPolicy(lop_budget=1.0))
        outcome = federation.execute_many_settled([plain], issuer="rich")[0]
        assert isinstance(outcome, QueryOutcome) and not outcome.cached
        assert outcome.rounds == exact_config().params.resolved_rounds()
        assert federation.router.tenant("rich").lop_spent == expected
        assert federation.plan_for(parse_spec(plain)).estimate.expected_lop == expected
    finally:
        federation.close()


@pytest.mark.parametrize("processes", [False, True], ids=["local", "processes"])
def test_a_planned_statement_is_charged_the_plan_it_runs(processes):
    federation = sharded_federation(_tenant_topology(), processes=processes)
    text = "SELECT TOP 2 value FROM t01 WITH SLO(max_rounds=6)"
    try:
        plan = federation.plan_for(parse_spec(text))
        federation.set_tenant("acme", TenantPolicy(lop_budget=1.0))
        outcome = federation.execute_many_settled([text], issuer="acme")[0]
        assert outcome.rounds == plan.estimate.rounds
        assert federation.router.tenant("acme").lop_spent == plan.estimate.expected_lop
        # A hit runs nothing and charges nothing.
        assert federation.execute_many_settled([text], issuer="acme")[0].cached
        assert federation.router.tenant("acme").lop_spent == plan.estimate.expected_lop
    finally:
        federation.close()
