"""One plan per statement, made by the federation that audits it.

* A statement with objectives runs the same plan on every path: flat, local
  shards, worker processes, through the gateway or called directly.  The
  sharded federation plans it once, over the parties of the ring it runs
  on, and hands each shard the plan in the shard frame; shards never plan.
* A tenant's LoP meter is charged the expected LoP of the plan that runs:
  a plain statement's is its base configuration's, estimated by the cost
  model, and a charge above the remaining budget refuses.
* A sharded statement is planned for the parties of the ring it runs on:
  its table's shard, or the largest shard for a partitioned table.
* ``Slo.is_trivial`` decides which statements are planned at all.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest

from repro.core.driver import RunConfig
from repro.federation.outcomes import QueryOutcome, QueryRefused
from repro.planner import CostModel, PlanInfeasible, QueryPlanner, parse_spec
from repro.planner.spec import Slo, parse_slo_clauses
from repro.privacy.dp import BudgetExhausted, DpPolicy
from repro.service import QueryService
from repro.sharding import (
    TenantPolicy,
    build_topology,
    sharded_federation,
)
from repro.sharding.topology import exact_config, single_federation

#: Its plan runs 12 rounds, at the flat federation's six parties as at the
#: three of the largest shard a sharded federation plans it for.
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


#: A statement whose SLO no plan meets, and the two that answer its form: the
#: plain statement and a DP release whose one inner statement is that form.
PLAIN = "SELECT TOP 2 value FROM t00"
TWIN = f"{PLAIN} WITH SLO(deadline=0.004)"
RELEASE = f"{PLAIN} WITH SLO(dp_epsilon=1.0)"


def _settled(kind: str, batch: list[str], issuer: str = "anonymous", **kwargs):
    """``batch`` settled on a fresh deployment, after checking it against a
    sequential replay on another fresh one from the same seed."""
    results = []
    for texts in ([batch], [[text] for text in batch]):
        federation = _deploy(kind, _partitioned(), **kwargs)
        if kind != "flat":
            federation.set_tenant("poor", TenantPolicy(lop_budget=0.3))
        try:
            results.append(
                [r for t in texts for r in federation.execute_many_settled(t, issuer=issuer)]
            )
        finally:
            _close(federation)
    settled, replayed = results

    def view(results):
        return [r if isinstance(r, QueryOutcome) else type(r.error) for r in results]

    assert view(settled) == view(replayed)
    return settled


@pytest.mark.parametrize("kind", ["flat", "local", "processes"])
def test_a_cached_answer_satisfies_an_unsatisfiable_slo(kind):
    # An answer public by the statement's turn meets any objective, on a
    # sharded deployment as on a flat one: cache-valid now, or run by a
    # statement its batch admitted earlier.
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

    plain, twin = _settled(kind, [PLAIN, TWIN])
    assert isinstance(twin, QueryOutcome) and twin.cached
    assert twin.values == plain.values and not plain.cached
    refused, plain = _settled(kind, [TWIN, PLAIN])
    assert isinstance(refused, QueryRefused) and isinstance(refused.error, PlanInfeasible)
    assert isinstance(plain, QueryOutcome) and not plain.cached
    release, twin = _settled(kind, [RELEASE, TWIN])
    assert isinstance(release, QueryOutcome) and release.protocol.endswith("+dp")
    assert isinstance(twin, QueryOutcome) and twin.cached


@pytest.mark.parametrize("kind", ["flat", "local", "processes"])
def test_the_twin_of_a_refused_statement_is_refused_and_runs_nothing(kind):
    # The plain statement's expected LoP (0.311 over the flat six parties,
    # 0.389 over a shard's three) is more than a 0.3 budget pays, so no
    # statement of the batch runs its form: the twin refuses PlanInfeasible
    # instead of running on the base configuration.
    kwargs = {"privacy_budget": 0.3} if kind == "flat" else {}
    federation = _deploy(kind, _partitioned(), **kwargs)
    if kind != "flat":
        federation.set_tenant("poor", TenantPolicy(lop_budget=0.3))
    try:
        settled = federation.execute_many_settled([PLAIN, TWIN], issuer="poor")
        ran = (federation.cache.hits, federation.cache.misses)
    finally:
        _close(federation)
    plain, twin = settled
    assert isinstance(plain, QueryRefused) and isinstance(plain.error, BudgetExhausted)
    assert plain.error.dimension == "lop"
    assert isinstance(twin, QueryRefused) and isinstance(twin.error, PlanInfeasible)
    assert ran == (0, 0)
    # A sequential replay refuses both the same way.
    _settled(kind, [PLAIN, TWIN], issuer="poor", **kwargs)


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
        # The base configuration never randomizes: Eq. 5 over the three
        # parties of t00's shard, 0.389, which a 0.3 budget cannot pay.
        expected = CostModel().ranking_estimate(
            n_parties=3, k=2, protocol="probabilistic", params=exact_config().params
        ).expected_lop
        assert expected == pytest.approx(0.3889, abs=1e-4)
        federation.set_tenant("poor", TenantPolicy(lop_budget=0.3))
        refused = federation.execute_many_settled([plain], issuer="poor")[0]
        assert isinstance(refused, QueryRefused)
        assert isinstance(refused.error, BudgetExhausted)
        assert refused.error.dimension == "lop"
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


# -- the party count -----------------------------------------------------------

#: The ``WITH SLO(...)`` forms the ``slo_dp`` benchmark workload issues
#: (bench/workloads.py), ranking and additive.
RANKING_SLOS = (
    "precision=0.999",
    "max_lop=0.5",
    "deadline=5.0, max_lop=0.5",
    "max_rounds=12",
    "epsilon=0.001, max_lop=0.5",
    "dp_epsilon=0.5",
    "dp_epsilon=1.0, dp_delta=1e-06",
)
ADDITIVE_SLOS = (
    "deadline=1.0",
    "max_lop=0.5",
    "dp_epsilon=0.5",
    "dp_epsilon=1.0, dp_delta=1e-06",
)
SLO_FORMS = [
    pytest.param(
        f"{body} WITH SLO({slo})", ranking,
        id=f"{body.split()[1]}-{slo.replace(' ', '')}",
    )
    for bodies, slos, ranking in (
        (
            (
                "SELECT TOP 3 value FROM {table}",
                "SELECT BOTTOM 2 value FROM {table}",
                "SELECT MAX(value) FROM {table}",
                "SELECT MIN(value) FROM {table}",
            ),
            RANKING_SLOS,
            True,
        ),
        (
            (
                "SELECT SUM(value) FROM {table}",
                "SELECT COUNT(value) FROM {table}",
                "SELECT AVG(value) FROM {table}",
            ),
            ADDITIVE_SLOS,
            False,
        ),
    )
    for body in bodies
    for slo in slos
]


def _four_party_shards():
    """``slo_dp``'s layout in small: two shards of four parties each."""
    topology = build_topology(
        shards=2, parties_per_shard=4, tables=3, rows_per_table=16,
        partitioned=1, seed=5,
    )
    return sharded_federation(topology, config=RunConfig(), dp=DpPolicy(seed=5))


@pytest.mark.parametrize("table", ["t00", "part00"], ids=["routed", "partitioned"])
@pytest.mark.parametrize(("form", "ranking"), SLO_FORMS)
def test_a_statement_is_planned_for_its_ring_and_charged_that_plan(form, ranking, table):
    text = form.format(table=table)
    spec = parse_spec(text)
    federation = _four_party_shards()
    try:
        plan = federation.plan_for(spec)
        assert plan == QueryPlanner().plan(
            spec, parties=4, base=federation.shards[0].config
        )
        assert plan.estimate.n_parties == 4
        federation.set_tenant("acme", TenantPolicy(lop_budget=1.0))
        outcome = federation.execute_many_settled([text], issuer="acme")[0]
        assert isinstance(outcome, QueryOutcome) and not outcome.cached
        # Secure sums are charged nothing, like the federation's own ledger.
        charge = plan.estimate.expected_lop if ranking else 0.0
        assert federation.router.tenant("acme").lop_spent == charge
    finally:
        federation.close()


def test_a_ring_is_counted_again_when_its_membership_changes():
    federation = _four_party_shards()
    # t00 is placed on shard 0, t02 on shard 1.
    assert [federation.router.route(table) for table in ("t00", "t02")] == [0, 1]
    text = "SELECT TOP 2 value FROM {} WITH SLO(max_rounds=12)"

    def sizes():
        return [
            federation.plan_for(parse_spec(text.format(table))).estimate.n_parties
            for table in ("t00", "t02", "part00")
        ]

    try:
        assert sizes() == [4, 4, 4]
        # The deployment's parties are every ring's, though none plans for all.
        assert len(federation.members) == 8
        federation.deregister(federation.shards[1].members()[0], shard=1)
        # The partitioned table runs on both rings: the larger one bounds it.
        assert sizes() == [4, 3, 4]
        federation.deregister(federation.shards[0].members()[0], shard=0)
        assert sizes() == [3, 3, 3]
        assert len(federation.members) == 6
    finally:
        federation.close()


# -- Slo.is_trivial ------------------------------------------------------------


@pytest.mark.parametrize(
    "clauses", ["", *RANKING_SLOS, *ADDITIVE_SLOS], ids=lambda c: c or "empty"
)
def test_is_trivial_and_has_dp_are_pinned(clauses):
    slo = parse_slo_clauses(clauses)
    assert slo.is_trivial is (clauses == "")
    assert slo.has_dp is ("dp_epsilon" in clauses)
    assert Slo().is_trivial is True and Slo().has_dp is False
    # Derived, not declared: no part of equality, hashing, repr or pickling.
    assert slo == Slo(**{
        name: getattr(slo, name) for name in (
            "epsilon", "max_lop", "deadline", "max_rounds", "protocol",
            "dp_epsilon", "dp_delta",
        )
    })
    assert "is_trivial" not in repr(slo)
    assert pickle.loads(pickle.dumps(slo)).is_trivial is slo.is_trivial
    assert "is_trivial" not in pickle.dumps(slo).decode("latin-1")
