"""One admission point: a statement's batch decides it, the gateway never.

The gateway plans a statement before its queue only to cost it; a plan no
SLO admits, or a budget with no room left, is the batch's refusal, decided
against what the batch admitted before it.  So a burst serves what the same
statements sent one after the other would serve: a ``WITH SLO(max_rounds=1)``
twin of a plain ``TOP 2`` that runs ahead of it in its batch is served the
plain statement's public answer, ``cached``.  On flat, one local shard and
one worker process alike.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.federation import QueryOutcome
from repro.planner import PlanInfeasible
from repro.privacy.dp import BudgetExhausted, DpPolicy
from repro.service import Overloaded, QueryService
from repro.sharding import build_topology, sharded_federation
from repro.sharding.topology import single_federation

PLAIN = "SELECT TOP 2 value FROM t00"
#: No plan runs in one round: planned alone, this statement is infeasible.
TWIN = f"{PLAIN} WITH SLO(max_rounds=1)"
KINDS = ["flat", "local", "processes"]


def _deploy(kind: str, **kwargs):
    """Four parties over one table, from one seed: a flat federation, or the
    same parties behind one local shard or one worker process."""
    topology = build_topology(
        shards=1, parties_per_shard=4, tables=1, rows_per_table=12, seed=1
    )
    if kind == "flat":
        return single_federation(topology, **kwargs)
    return sharded_federation(topology, processes=kind == "processes", **kwargs)


def _submitted(kind: str, texts: list[str], *, burst: bool, **service_kwargs):
    """``texts`` through a fresh gateway on a fresh ``kind`` deployment, in
    one ``submit_many`` burst or one ``submit`` after the other; the results
    (an exception where one was raised) and the service's counters."""
    federation = _deploy(kind)

    async def scenario():
        async with QueryService(federation, **service_kwargs) as service:
            if burst:
                results = await service.submit_many(texts, return_exceptions=True)
            else:
                results = []
                for text in texts:
                    try:
                        results.append(await service.submit(text))
                    except Exception as exc:  # noqa: BLE001 — compared below
                        results.append(exc)
            return list(results), service.metrics

    try:
        return asyncio.run(scenario())
    finally:
        close = getattr(federation, "close", None)
        if close is not None:
            close()


def _partitioned(metrics) -> bool:
    return metrics.submitted == (
        metrics.completed
        + metrics.refused
        + metrics.failed
        + metrics.shed
        + metrics.plan_infeasible
    )


def test_the_twin_is_infeasible_planned_alone():
    federation = _deploy("flat")
    with pytest.raises(PlanInfeasible):
        federation.execute(TWIN)


@pytest.mark.parametrize("kind", KINDS)
def test_a_burst_serves_the_twin_its_batch_makes_public(kind):
    (plain, twin), metrics = _submitted(kind, [PLAIN, TWIN], burst=True)
    assert isinstance(plain, QueryOutcome) and not plain.cached
    assert isinstance(twin, QueryOutcome) and twin.cached
    assert twin.values == plain.values
    replayed, _ = _submitted(kind, [PLAIN, TWIN], burst=False)
    assert [plain, twin] == replayed
    assert (metrics.batches, metrics.admitted, metrics.completed) == (1, 2, 2)
    assert metrics.plan_infeasible == 0 and _partitioned(metrics)


@pytest.mark.parametrize("kind", KINDS)
def test_a_twin_ahead_of_its_plain_form_is_refused(kind):
    (twin, plain), metrics = _submitted(kind, [TWIN, PLAIN], burst=True)
    assert isinstance(twin, PlanInfeasible)
    assert isinstance(plain, QueryOutcome) and not plain.cached
    replayed, _ = _submitted(kind, [TWIN, PLAIN], burst=False)
    assert isinstance(replayed[0], PlanInfeasible) and replayed[1] == plain
    # Settled by the batch, counted apart from the other refusals.
    assert (metrics.admitted, metrics.plan_infeasible, metrics.refused) == (2, 1, 0)
    assert _partitioned(metrics)


def test_a_full_queue_sheds_an_infeasible_statement():
    # Nothing is refused before the queue on a plan's account, so with the
    # queue full the infeasible statement is shed, retry-later.
    (plain, twin), metrics = _submitted(
        "flat", [PLAIN, "SELECT TOP 3 value FROM t00 WITH SLO(max_rounds=1)"],
        burst=True, max_queue=1,
    )
    assert isinstance(plain, QueryOutcome)
    assert isinstance(twin, Overloaded)
    assert (metrics.shed_overload, metrics.plan_infeasible) == (1, 0)
    assert _partitioned(metrics)


def test_an_over_budget_release_is_refused_by_its_batch():
    # The (epsilon, delta) refusal is the batch's: it takes a queue slot and
    # leaves every book where it was.
    federation = _deploy("flat", dp=DpPolicy(epsilon_budget=1.0, seed=3))

    async def scenario():
        async with QueryService(federation) as service:
            with pytest.raises(BudgetExhausted) as refused:
                await service.submit(f"{PLAIN} WITH SLO(dp_epsilon=2.0)")
            return refused.value, service.metrics

    refusal, metrics = asyncio.run(scenario())
    assert refusal.dimension == "epsilon"
    assert (metrics.admitted, metrics.batches, metrics.refused) == (1, 1, 1)
    assert _partitioned(metrics)
    accountant = federation.dp_gate.accountant
    assert accountant.epsilon.spent == 0.0 and accountant.refusals == 1
    assert len(federation.audit) == 0 and len(federation.cache) == 0
