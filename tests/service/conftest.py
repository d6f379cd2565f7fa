"""Shared fixtures for the query-service tests.

The tests run coroutines with plain ``asyncio.run`` (no asyncio pytest
plugin is assumed); each test builds its own federation so cache and ledger
state never leaks between tests.
"""

import asyncio

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import AccessPolicy, Federation, PolicyViolation, SqlError
from repro.planner import PlanInfeasible
from repro.service import DeadlineExceeded, QueryService
from repro.sharding import (
    ShardedFederation,
    ShardRouter,
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


def _flat_backend(policy: AccessPolicy):
    return fresh_federation(policy=policy), "data"


def _sharded_local_backend(policy: AccessPolicy):
    topology = build_topology(shards=2, seed=7)
    federation = ShardedFederation(
        local_shards(topology, policy=policy),
        router=ShardRouter(topology.shard_count, partitioned=topology.partitioned),
        domain=topology.domain,
    )
    return federation, topology.tables[0]


@pytest.fixture(
    params=[_flat_backend, _sharded_local_backend], ids=["flat", "sharded-local"]
)
def policy_backend(request):
    """``policy_backend(policy)`` -> ``(federation, a table it serves)``."""
    return request.param


def serve_every_way_out(build_backend, tracer=None) -> QueryService:
    """One open service, one submission per way a statement can leave it.

    Served from a batch and from the cache; refused at admission (a hit the
    policy denies the issuer, a hit past the issuer's quota, three malformed
    statements), in the batch (a miss the policy denies) and by the planner
    (an SLO no plan meets); shed (a deadline already expired).  Returns the
    drained service.
    """
    policy = AccessPolicy(quota_per_issuer=2).allow("alice", "ANY").allow("bob", "ANY")
    federation, table = build_backend(policy)
    service = QueryService(federation, tracer=tracer)
    top = f"SELECT TOP 2 value FROM {table}"
    #: (statement, issuer, submit kwargs, expected outcome)
    script = [
        (top, "alice", {}, "served"),
        (top, "alice", {}, "hit"),
        (top, "mallory", {}, PolicyViolation),  # a hit, but no rule for mallory
        (top, "alice", {}, PolicyViolation),  # a hit, but alice's quota is spent
        ("SELECT NOPE", "bob", {}, SqlError),
        (f"{top} WITH SLO(speed=ludicrous)", "bob", {}, SqlError),
        ("", "bob", {}, SqlError),
        (f"SELECT MAX(value) FROM {table}", "mallory", {}, PolicyViolation),
        (f"SELECT MIN(value) FROM {table} WITH SLO(deadline=1e-9)", "bob", {},
         PlanInfeasible),
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
