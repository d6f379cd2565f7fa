"""What a sharded gateway sees of a fan-out: every shard's exact partial.

A statement over a partitioned table runs on every shard, and the gateway
merges the shards' answers (``sharding.federation._merge_fanout``).  Those
answers arrive in the clear: a ``TOP k`` brings each shard's local top-k, a
``SUM`` each shard's exact sum, an ``AVG`` each shard's exact SUM and COUNT,
and a DP fan-out is noised only after the merge.  docs/PRIVACY.md lists this
under what the protocol does not hide; this file pins it, so masking or
noising the partials moves these assertions on purpose.
"""

from __future__ import annotations

import pytest

from repro.privacy.dp import DpPolicy
from repro.sharding import build_topology, sharded_federation
from repro.sharding import federation as sharding_federation

TABLE = "part00"


@pytest.fixture(scope="module")
def topology():
    return build_topology(shards=3, parties_per_shard=3, partitioned=1, seed=7)


@pytest.fixture
def replies(monkeypatch):
    """Every fan-out merge's per-shard partial values, as the gateway held
    them: one entry per merge, one list per shard, one tuple per reply."""
    seen = []
    merge = sharding_federation._merge_fanout

    def spy(statement, statement_text, partials):
        seen.append([[outcome.values for outcome in p] for p in partials])
        return merge(statement, statement_text, partials)

    monkeypatch.setattr(sharding_federation, "_merge_fanout", spy)
    return seen


def _shard_rows(topology) -> list[list[int]]:
    """Each shard's rows of the partitioned table, over all its parties."""
    return [
        [value for held in shard.values() for value in held.get(TABLE, ())]
        for shard in topology.assignments
    ]


def test_top_k_hands_the_gateway_every_shards_local_top_k(topology, replies):
    federation = sharded_federation(topology)
    outcome = federation.execute(f"SELECT TOP 3 value FROM {TABLE}")
    local = [
        tuple(sorted(rows, reverse=True)[:3]) for rows in _shard_rows(topology)
    ]
    assert local == [(9931, 9101, 8578), (9204, 9180, 9118), (9971, 8696, 8493)]
    assert replies == [[[top] for top in local]]
    held = {value for top in local for value in top}
    # Six of the nine values the gateway held are not in the answer.
    assert len(held - set(outcome.values)) == 6
    assert outcome.average_lop is None


def test_sum_hands_the_gateway_every_shards_exact_sum(topology, replies):
    federation = sharded_federation(topology)
    outcome = federation.execute(f"SELECT SUM(value) FROM {TABLE}")
    sums = [sum(rows) for rows in _shard_rows(topology)]
    assert replies == [[[(total,)] for total in sums]]
    assert outcome.values == (sum(sums),)


def test_avg_hands_the_gateway_every_shards_exact_sum_and_count(topology, replies):
    federation = sharded_federation(topology)
    outcome = federation.execute(f"SELECT AVG(value) FROM {TABLE}")
    rows = _shard_rows(topology)
    assert replies == [[[(sum(r),), (len(r),)] for r in rows]]
    assert outcome.values == (sum(map(sum, rows)) / sum(map(len, rows)),)


def test_a_dp_fanout_reaches_the_gateway_un_noised(topology, replies):
    federation = sharded_federation(topology, dp=DpPolicy(seed=3))
    outcome = federation.execute(f"SELECT SUM(value) FROM {TABLE} WITH SLO(dp_epsilon=1.0)")
    sums = [sum(rows) for rows in _shard_rows(topology)]
    assert replies == [[[(total,)] for total in sums]]
    # The noise lands on the merged answer only.
    assert outcome.values != (sum(sums),)
