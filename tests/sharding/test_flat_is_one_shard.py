"""Flat is the one-shard case: one serving path, one dispatch, one fast path.

* ``execute`` is a batch of one on both deployments, so a repeat is a cached
  re-serve: no ring, no LoP charge, no epsilon, one audit entry.  Every batch
  settles: there is no raising ``execute_many`` beside it.
* A sharded batch costs each involved shard one sub-batch, routed and
  fan-out statements alike, in statement order with DP inner statements in
  place.
* A fan-out's or DP statement's fast path only looks at the shards' answers
  until the re-serve is certain: a miss audits nothing and counts no hit.
* An outcome is the public answer plus the ring's average LoP, the same
  dataclass from a flat federation, a local shard or a worker process; the
  run's transcript dies with its batch.
"""

from __future__ import annotations

import gc
import weakref
from functools import partial

import pytest

from repro.federation import Federation
from repro.federation.outcomes import QueryOutcome
from repro.privacy.dp import DpPolicy
from repro.sharding import (
    ShardedFederation,
    ShardRouter,
    build_topology,
    sharded_federation,
    topology_workload,
)
from repro.sharding.shards import LocalShard
from repro.sharding.topology import local_shards, single_federation

from ..conftest import capturing_transcripts

DP = DpPolicy(seed=5)


def _topology():
    return build_topology(
        shards=2, parties_per_shard=3, tables=3, rows_per_table=12,
        partitioned=1, seed=23,
    )


def _routed(topology) -> str:
    return next(t for t in topology.tables if t not in topology.partitioned)


def _deploy(kind: str, topology, shard=LocalShard, **kwargs):
    """A flat federation, or a sharded one over local shards; ``kwargs``
    reach every :class:`~repro.federation.coordinator.Federation`."""
    if kind == "flat":
        return single_federation(topology, dp=DP, **kwargs)
    shards = [
        shard(s.federation, index=s.index) for s in local_shards(topology, **kwargs)
    ]
    router = ShardRouter(topology.shard_count, partitioned=topology.partitioned)
    return ShardedFederation(shards, router=router, dp=DP, domain=topology.domain)


def _federations(federation):
    """The :class:`Federation` objects that hold audit, cache and ledger."""
    if isinstance(federation, ShardedFederation):
        return [shard.federation for shard in federation.shards]
    return [federation]


def _books(federation):
    """Audit length, cache hits, LoP runs charged and epsilon spent."""
    feds = _federations(federation)
    return (
        sum(len(f.audit) for f in feds),
        sum(f.cache.hits for f in feds),
        sum(f.ledger.runs_charged for f in feds),
        federation.dp_gate.accountant.epsilon.spent,
    )


def _owner_of(federation, topology, table: str):
    """The first party holding ``table``'s rows, as ``federation`` holds it."""
    target = ShardRouter(topology.shard_count).route(table)
    owner = sorted(topology.assignments[target])[0]
    if isinstance(federation, ShardedFederation):
        return federation.shards[target].federation._parties[owner]
    return federation._parties[owner]


@pytest.mark.parametrize("kind", ["flat", "sharded"])
@pytest.mark.parametrize("dp", [False, True], ids=["plain", "dp"])
def test_execute_is_a_batch_of_one(kind, dp):
    topology = _topology()
    federation = _deploy(kind, topology)
    text = f"SELECT TOP 2 value FROM {_routed(topology)}"
    if dp:
        text += " WITH SLO(dp_epsilon=1.0)"
    first = federation.execute(text)
    assert not first.cached and first.rounds > 0
    audit, hits, runs, spent = _books(federation)
    again = federation.execute(text)
    assert again.cached
    assert (again.rounds, again.messages) == (0, 0)
    assert again.values == first.values
    assert _books(federation) == (audit + 1, hits + 1, runs, spent)


@pytest.mark.parametrize("kind", ["flat", "sharded"])
def test_every_batch_settles(kind):
    federation = _deploy(kind, _topology())
    assert not hasattr(federation, "execute_many")
    # Traces arrive with the batch; a federation holds no tracer of its own.
    with pytest.raises(TypeError, match="tracer"):
        Federation(domain=federation.domain, tracer=None)


class _RecordingShard(LocalShard):
    def __init__(self, federation, *, index, log):
        super().__init__(federation, index=index)
        self.log = log

    def execute_many_settled(self, statements, **kwargs):
        self.log.append((self.index, list(statements)))
        return super().execute_many_settled(statements, **kwargs)


def test_a_mixed_batch_is_one_sub_batch_per_shard():
    topology = _topology()
    log: list = []
    federation = _deploy("sharded", topology, shard=partial(_RecordingShard, log=log))
    router = federation.router
    r0 = next(t for t in topology.tables if router.route(t) == 0)
    r1 = next(t for t in topology.tables if router.route(t) == 1)
    part = topology.partitioned[0]
    results = federation.execute_many_settled(
        [
            f"SELECT MAX(value) FROM {r0}",
            f"SELECT AVG(value) FROM {part} WITH SLO(dp_epsilon=1.0)",
            f"SELECT TOP 2 value FROM {r1} WITH SLO(dp_epsilon=1.0)",
            f"SELECT MIN(value) FROM {part}",
            f"SELECT COUNT(value) FROM {r0}",
        ]
    )
    assert not any(r.cached for r in results)
    fanned = [
        f"SELECT SUM(value) FROM {part}", f"SELECT COUNT(value) FROM {part}",
    ]
    assert log == [
        (0, [f"SELECT MAX(value) FROM {r0}", *fanned,
             f"SELECT MIN(value) FROM {part}", f"SELECT COUNT(value) FROM {r0}"]),
        (1, [*fanned, f"SELECT TOP 2 value FROM {r1}",
             f"SELECT MIN(value) FROM {part}"]),
    ]


def _changed_under_the_release(federation, topology, table):
    """A DP SUM release, one inserted row, then the plain SUM re-cached."""
    federation.execute(f"SELECT SUM(value) FROM {table} WITH SLO(dp_epsilon=1.0)")
    _owner_of(federation, topology, table).insert(table, {"value": 7})
    federation.execute(f"SELECT SUM(value) FROM {table}")
    return f"SELECT SUM(value) FROM {table} WITH SLO(dp_epsilon=1.0)"


def _half_evicted(federation, topology, table):
    """A DP AVG release, then the plain SUM re-cached: COUNT is evicted."""
    federation.execute(f"SELECT AVG(value) FROM {table} WITH SLO(dp_epsilon=1.0)")
    federation.execute(f"SELECT SUM(value) FROM {table}")
    return f"SELECT AVG(value) FROM {table} WITH SLO(dp_epsilon=1.0)"


@pytest.mark.parametrize("kind", ["flat", "sharded"])
@pytest.mark.parametrize("route", [_changed_under_the_release, _half_evicted])
def test_a_dp_fast_path_miss_serves_nothing(kind, route):
    topology = _topology()
    federation = _deploy(kind, topology, cache_entries=1)
    text = route(federation, topology, _routed(topology))
    books = _books(federation)
    assert federation.try_cached(text) is None
    assert _books(federation) == books


def test_a_plain_fanout_fast_path_miss_serves_nothing():
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, partitioned=2, seed=1
    )
    federation = sharded_federation(topology)
    text = f"SELECT MAX(value) FROM {topology.partitioned[0]}"
    federation.execute(text)
    audit, hits, runs, spent = _books(federation)
    federation.shards[1].federation.cache.clear()
    assert federation.try_cached(text) is None
    assert _books(federation) == (audit, hits, runs, spent)
    # Once every shard holds its partial again, the hit serves on each.
    federation.execute(text)
    audit, hits, runs, spent = _books(federation)
    assert federation.try_cached(text).cached
    assert _books(federation) == (audit + 2, hits + 2, runs, spent)


def test_a_routed_outcome_is_one_outcome_flat_local_and_in_a_worker():
    topology = build_topology(
        shards=1, parties_per_shard=4, tables=3, rows_per_table=12,
        partitioned=0, seed=29,
    )
    statements = topology_workload(topology, 24, seed=2)
    remote = sharded_federation(topology, processes=True)
    try:
        by_process = remote.execute_many_settled(statements, issuer="t")
    finally:
        remote.close()
    by_flat = single_federation(topology).execute_many_settled(statements, issuer="t")
    by_local = sharded_federation(topology).execute_many_settled(statements, issuer="t")
    assert all(isinstance(outcome, QueryOutcome) for outcome in by_flat)
    assert by_flat == by_local == by_process
    executed = [o for o in by_flat if not o.cached and o.protocol == "probabilistic"]
    assert executed and all(0.0 <= o.average_lop <= 1.0 for o in executed)


@pytest.mark.parametrize("kind", ["flat", "sharded"])
def test_no_protocol_result_outlives_its_batch(kind):
    topology = _topology()
    federation = _deploy(kind, topology)
    statements = [f"SELECT TOP 2 value FROM {table}" for table in topology.tables]
    with capturing_transcripts(weakref.ref) as runs:
        outcomes = federation.execute_many_settled(statements)
    assert len(runs) >= len(statements)
    gc.collect()
    # The outcomes are still held; none of them holds its run alive.
    assert [run() for run in runs] == [None] * len(runs)
    for table, outcome in zip(topology.tables, outcomes, strict=True):
        # A fan-out merge ran no single ring, so it carries no LoP.
        fanout = kind == "sharded" and table in topology.partitioned
        assert (outcome.average_lop is None) == fanout
