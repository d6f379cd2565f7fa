"""A statement the federation cannot answer refuses only itself.

An AVG over zero rows, a statement over a missing table or attribute, or over
a table whose schema differs between members is refused at its own position
(its in-batch duplicates with it), while the rest of the batch is served,
audited and cached as usual: on a flat federation, behind a local shard,
behind a worker process, and through the query service, which then counts no
failed batch.  Every refusal reaches the caller as its own type, never
wrapped as a shard failure, and one decided before planning (quorum and
schema, on a sharded front against its shards' public schemas) draws no seed
and reserves no privacy budget.
"""

import asyncio
from contextlib import contextmanager

import numpy as np
import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.database.schema import Schema, SchemaError
from repro.federation import Federation, FederationError, QueryOutcome
from repro.privacy.dp import DpPolicy
from repro.service import QueryService
from repro.sharding import ShardedFederation
from repro.sharding.shards import LocalShard, ProcessShard

COUNT = "SELECT COUNT(value) FROM data"
OWNERS = ("acme", "bravo", "corex")


def empty_federation(owners=OWNERS, **options) -> Federation:
    """Parties each holding an empty ``data`` table, and an ``other`` table
    whose column is REAL everywhere but INTEGER at ``corex``."""
    federation = Federation(domain=PAPER_DOMAIN, seed=3, **options)
    for owner in owners:
        database = database_from_values(owner, np.array([], dtype=float))
        kind = "INTEGER" if owner == "corex" else "REAL"
        database.create_table("other", Schema.of(("value", kind)))
        federation.register(database)
    return federation


def errors(results: list) -> list:
    """Each statement's outcome, or the error it was refused with."""
    return [getattr(result, "error", result) for result in results]


@contextmanager
def flat(federation: Federation):
    yield federation


@contextmanager
def local_shard(federation: Federation, **options):
    yield ShardedFederation([LocalShard(federation)], domain=PAPER_DOMAIN, **options)


@contextmanager
def process_shard(federation: Federation, **options):
    """The federation served by a worker forked around it: from here on the
    worker's copy answers, so only the front's view of it can be checked."""
    shard = ProcessShard.launch(LocalShard(federation))
    try:
        shard.handshake()
        yield ShardedFederation([shard], domain=PAPER_DOMAIN, **options)
    finally:
        shard.close()


DEPLOYMENTS = [flat, local_shard, process_shard]


def serve_through_gateway(front, batch: list[str]) -> list:
    async def scenario():
        async with QueryService(front) as service:
            results = await service.submit_many(batch, return_exceptions=True)
            return results, service.metrics

    results, metrics = asyncio.run(scenario())
    assert (metrics.failed, metrics.refused) == (0, len(batch) - 1)
    return results


@pytest.mark.parametrize(
    "refused, error, match",
    [
        ("SELECT AVG(value) FROM data", FederationError, "AVG over zero rows"),
        ("SELECT SUM(value) FROM nowhere", SchemaError, "nowhere"),
        ("SELECT TOP 2 value FROM nowhere", SchemaError, "nowhere"),
        ("SELECT MAX(nothing) FROM data", SchemaError, "nothing"),
        ("SELECT TOP 1 value FROM other", SchemaError, "does not match peers"),
    ],
    ids=[
        "avg-over-zero-rows",
        "missing-table",
        "top-over-missing-table",
        "max-over-missing-attribute",
        "mismatched-schema",
    ],
)
@pytest.mark.parametrize(
    "deploy, gateway",
    [(flat, False), (local_shard, False), (process_shard, False), (flat, True)],
    ids=["flat", "local_shard", "process_shard", "gateway"],
)
def test_only_the_unanswerable_statement_refuses(
    deploy, gateway, refused, error, match
):
    federation = empty_federation()
    batch = [COUNT, refused, refused.lower()]
    with deploy(federation) as front:
        if gateway:
            results = serve_through_gateway(front, batch)
        else:
            results = errors(front.execute_many_settled(batch))
        counted, *refusals = results
        assert isinstance(counted, QueryOutcome) and counted.values == (0.0,)
        for exc in refusals:
            assert isinstance(exc, error) and match in str(exc)
        if deploy is not process_shard:
            # The COUNT is audited once and cached; nothing of the refusal is.
            assert [entry.statement for entry in federation.audit] == [COUNT]
            assert len(federation.cache) == 1
        hit = front.try_cached(COUNT)
        assert hit is not None and hit.values == (0.0,)


@pytest.mark.parametrize("deploy", DEPLOYMENTS)
def test_a_ranking_batch_serves_beside_a_missing_table(deploy):
    # The served statement draws exactly the seeds a sequential session
    # issuing it alone draws, so its answer is that session's, bit for bit.
    def populated() -> Federation:
        federation = Federation(domain=PAPER_DOMAIN, seed=11)
        for index, owner in enumerate(OWNERS):
            values = [10 * index + v for v in (3, 7, 9)]
            federation.register(database_from_values(owner, values))
        return federation

    top = "SELECT TOP 2 value FROM data"
    alone = populated().execute(top)
    with deploy(populated()) as front:
        served, missing = errors(
            front.execute_many_settled([top, "SELECT MAX(value) FROM nowhere"])
        )
    assert type(missing) is SchemaError and "nowhere" in str(missing)
    assert served == alone


@pytest.mark.parametrize("deploy", DEPLOYMENTS)
def test_below_quorum_refuses_as_itself(deploy):
    with deploy(empty_federation(OWNERS[:2])) as front:
        (refusal,) = errors(front.execute_many_settled(["SELECT MAX(value) FROM data"]))
    assert type(refusal) is FederationError and "n >= 3" in str(refusal)


def test_a_refused_dp_statement_reserves_no_budget():
    federation = empty_federation(dp=DpPolicy(epsilon_budget=1.0))
    missing, released = errors(
        federation.execute_many_settled(
            [
                "SELECT SUM(value) FROM nowhere WITH SLO(dp_epsilon=0.6)",
                "SELECT SUM(value) FROM data WITH SLO(dp_epsilon=0.6)",
            ]
        )
    )
    assert type(missing) is SchemaError
    assert isinstance(released, QueryOutcome)
    assert federation.dp_gate.accountant.epsilon.spent == pytest.approx(0.6)


@pytest.mark.parametrize("deploy", [local_shard, process_shard])
def test_a_refused_dp_statement_reserves_no_budget_behind_a_shard(deploy):
    # The sharded front resolves against its shard's public schemas before
    # DP admission, so the missing table reserves no epsilon there either.
    with deploy(empty_federation(), dp=DpPolicy(epsilon_budget=1.0)) as front:
        missing, released = errors(
            front.execute_many_settled(
                [
                    "SELECT SUM(value) FROM nowhere WITH SLO(dp_epsilon=0.6)",
                    "SELECT SUM(value) FROM data WITH SLO(dp_epsilon=0.6)",
                ]
            )
        )
        assert type(missing) is SchemaError
        assert isinstance(released, QueryOutcome)
        assert front.dp_gate.accountant.epsilon.spent == pytest.approx(0.6)
