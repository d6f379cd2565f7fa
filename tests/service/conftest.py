"""Shared fixtures for the query-service tests.

The tests run coroutines with plain ``asyncio.run`` (no asyncio pytest
plugin is assumed); each test builds its own federation so cache and ledger
state never leaks between tests.
"""

import asyncio

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import Federation, SqlError
from repro.planner import PlanInfeasible
from repro.privacy.dp import DpPolicy, DpRequired
from repro.service import DeadlineExceeded, QueryService
from repro.sharding import (
    ShardedFederation,
    ShardRouter,
    TenantPolicy,
    build_topology,
    local_shards,
)

DATASETS = {
    "acme": [100, 900, 250],
    "bravo": [9000, 40],
    "corex": [7000, 6500, 3],
    "delta": [5],
}

MIXED_STATEMENTS = [
    "SELECT TOP 3 value FROM data",
    "SELECT SUM(value) FROM data",
    "SELECT BOTTOM 2 value FROM data",
    "SELECT AVG(value) FROM data",
    "SELECT MAX(value) FROM data",
]


def fresh_federation(seed: int = 7, **kwargs) -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=seed, **kwargs)
    for owner, values in DATASETS.items():
        fed.register(database_from_values(owner, values))
    return fed


#: Every issuer the refusal matrix below submits as.
ISSUERS = ("alice", "bob", "mallory")


def _flat_backend():
    # The federation's budget covers every issuer: all are DP-governed.
    return fresh_federation(dp=DpPolicy(epsilon_budget=8.0, seed=3)), "data"


def _sharded_local_backend():
    topology = build_topology(shards=2, seed=7)
    federation = ShardedFederation(
        local_shards(topology),
        router=ShardRouter(topology.shard_count, partitioned=topology.partitioned),
        dp=DpPolicy(seed=3),
        domain=topology.domain,
    )
    for issuer in ISSUERS:  # each tenant's own budget governs it
        federation.set_tenant(issuer, TenantPolicy(dp_epsilon_budget=8.0))
    return federation, topology.tables[0]


@pytest.fixture(
    params=[_flat_backend, _sharded_local_backend], ids=["flat", "sharded-local"]
)
def governed_backend(request):
    """``governed_backend()`` -> ``(federation, a table it serves)``, with
    every issuer in :data:`ISSUERS` DP-governed."""
    return request.param


def serve_every_way_out(build_backend, tracer=None) -> QueryService:
    """One open service, one submission per way a statement can leave it.

    Served from a batch and from the cache (a DP release and its free
    re-serve); refused at admission (two plain statements whose exact answer
    is cached, three malformed statements, a plain miss — each governed
    issuer's plain statement is refused hit or miss) and by the planner (an
    SLO no plan meets); shed (a deadline already expired).  Returns the
    drained service.
    """
    federation, table = build_backend()
    service = QueryService(federation, tracer=tracer)
    top = f"SELECT TOP 2 value FROM {table}"
    dp_top = f"{top} WITH SLO(dp_epsilon=0.5)"
    #: (statement, issuer, submit kwargs, expected outcome)
    script = [
        (dp_top, "alice", {}, "served"),
        (dp_top, "alice", {}, "hit"),
        (top, "mallory", {}, DpRequired),  # the exact inner answer is cached
        (top, "alice", {}, DpRequired),  # the releasing issuer's too
        ("SELECT NOPE", "bob", {}, SqlError),
        (f"{top} WITH SLO(speed=ludicrous)", "bob", {}, SqlError),
        ("", "bob", {}, SqlError),
        (f"SELECT MAX(value) FROM {table}", "mallory", {}, DpRequired),  # a miss
        (f"SELECT MIN(value) FROM {table} WITH SLO(deadline=1e-9, dp_epsilon=0.5)",
         "bob", {}, PlanInfeasible),
        (f"SELECT MIN(value) FROM {table}", "bob", {"timeout": 0.0}, DeadlineExceeded),
    ]

    async def scenario():
        async with service:
            for statement, issuer, kwargs, expected in script:
                if isinstance(expected, str):
                    outcome = await service.submit(statement, issuer=issuer, **kwargs)
                    assert outcome.cached == (expected == "hit")
                else:
                    with pytest.raises(expected):
                        await service.submit(statement, issuer=issuer, **kwargs)

    asyncio.run(scenario())
    return service
