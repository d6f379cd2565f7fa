"""A statement the batch body cannot answer refuses only itself.

An AVG over zero rows or a SUM over a missing table is refused at
its own position (its in-batch duplicates with it), while the rest of the
batch is served, audited and cached as usual: on a flat federation, behind
a local shard, and through the query service, which then counts no failed
batch.
"""

import asyncio

import numpy as np
import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.database.schema import SchemaError
from repro.federation import Federation, FederationError, QueryOutcome
from repro.service import QueryService
from repro.sharding import ShardedFederation
from repro.sharding.shards import LocalShard

COUNT = "SELECT COUNT(value) FROM data"


def empty_federation() -> Federation:
    """Three parties, each holding an empty ``data`` table."""
    federation = Federation(domain=PAPER_DOMAIN, seed=3)
    for owner in ("acme", "bravo", "corex"):
        federation.register(database_from_values(owner, np.array([], dtype=float)))
    return federation


def flat(federation: Federation, batch: list[str]) -> list:
    """Each statement's outcome, or the error it was refused with."""
    return [
        getattr(result, "error", result)
        for result in federation.execute_many_settled(batch)
    ]


def local_shard(federation: Federation, batch: list[str]) -> list:
    sharded = ShardedFederation([LocalShard(federation)], domain=PAPER_DOMAIN)
    return [
        getattr(result, "error", result)
        for result in sharded.execute_many_settled(batch)
    ]


def gateway(federation: Federation, batch: list[str]) -> list:
    async def scenario():
        async with QueryService(federation) as service:
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
    ],
    ids=["avg-over-zero-rows", "missing-table"],
)
@pytest.mark.parametrize("serve", [flat, local_shard, gateway])
def test_only_the_unanswerable_statement_refuses(serve, refused, error, match):
    federation = empty_federation()
    counted, *errors = serve(federation, [COUNT, refused, refused.lower()])
    assert isinstance(counted, QueryOutcome) and counted.values == (0.0,)
    for exc in errors:
        assert isinstance(exc, error) and match in str(exc)
    # The COUNT is audited once and cached; nothing of the refusal is.
    assert [entry.statement for entry in federation.audit] == [COUNT]
    assert len(federation.cache) == 1
    hit = federation.try_cached(COUNT)
    assert hit is not None and hit.values == (0.0,)
