"""What a sharded gateway sees of a fan-out: every shard's exact partial.

A statement over a partitioned table runs on every shard, and the gateway
merges the shards' answers (``sharding.federation._merge_fanout``).  Those
answers arrive in the clear: a ``TOP k`` brings each shard's local top-k, a
``SUM`` each shard's exact sum, an ``AVG`` each shard's exact SUM and COUNT,
and a DP fan-out is noised only after the merge.  docs/PRIVACY.md lists this
under what the protocol does not hide; this file pins it, so masking or
noising the partials moves these assertions on purpose.  The last part pins
the same list at the shard wire: every op a worker answers, field by field.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.privacy.dp import DpPolicy
from repro.sharding import build_topology, local_shards, sharded_federation
from repro.sharding import federation as sharding_federation
from repro.sharding import worker

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


# -- the wire: what each reply op carries --------------------------------------

#: An outcome on the wire: the public answer, the run's public costs and its
#: ``average_lop`` (docs/PRIVACY.md, "What the issuer receives").
OUTCOME_FIELDS = {
    "statement", "values", "protocol", "rounds", "messages", "cached",
    "simulated_seconds", "average_lop",
}
#: A peeked answer: the values and the protocol that produced them.
ANSWER_FIELDS = {"values", "protocol"}
#: Every op ``worker._handle`` answers, and the fields its reply carries
#: beside ``ok``.
REPLY_FIELDS = {
    "ping": set(),
    "cache_stats": {"hits", "misses"},
    "execute_many_settled": {"results"},
    "try_cached": {"outcome"},
    "peek": {"answer"},
    "try_cached_many": {"outcomes"},
    "peek_many": {"answers"},
    "deregister": set(),
    "shutdown": {"bye"},
}
#: One shard's fan-out texts: a TOP k, and AVG's SUM and COUNT.
TEXTS = [
    f"SELECT TOP 3 value FROM {TABLE}",
    f"SELECT SUM(value) FROM {TABLE}",
    f"SELECT COUNT(value) FROM {TABLE}",
]


def _partials(rows: list[int]) -> list[list[float]]:
    """What docs/PRIVACY.md says a shard hands over for each of ``TEXTS``:
    its local top-k, its exact sum, its exact count."""
    return [
        [float(v) for v in sorted(rows, reverse=True)[:3]],
        [float(sum(rows))],
        [float(len(rows))],
    ]


def test_every_op_the_worker_answers_is_pinned_here():
    answered = set(re.findall(r'op == "(\w+)"', inspect.getsource(worker._handle)))
    assert answered == set(REPLY_FIELDS)


def _reply(shard, op: str, **request) -> dict:
    reply = worker._handle(shard, {"op": op, **request})
    assert reply["ok"] is True
    assert set(reply) == {"ok"} | REPLY_FIELDS[op], op
    return reply


def test_each_reply_carries_only_the_listed_fields_and_partials(topology):
    for shard, rows in zip(local_shards(topology), _shard_rows(topology)):
        want = _partials(rows)
        settled = _reply(shard, "execute_many_settled", statements=TEXTS)["results"]
        assert [set(entry) for entry in settled] == [{"ok", "outcome"}] * len(TEXTS)
        assert [set(e["outcome"]) for e in settled] == [OUTCOME_FIELDS] * len(TEXTS)
        assert [e["outcome"]["values"] for e in settled] == want

        per_text = [_reply(shard, "try_cached", statement=t)["outcome"] for t in TEXTS]
        assert [set(o) for o in per_text] == [OUTCOME_FIELDS] * len(TEXTS)
        assert [o["values"] for o in per_text] == want
        assert all(o["cached"] and o["average_lop"] is None for o in per_text)
        # A batched reply carries exactly its per-text replies, no more.
        assert _reply(shard, "try_cached_many", statements=TEXTS)["outcomes"] == per_text

        peeked = [_reply(shard, "peek", statement=t)["answer"] for t in TEXTS]
        assert [set(a) for a in peeked] == [ANSWER_FIELDS] * len(TEXTS)
        assert [a["values"] for a in peeked] == want
        assert _reply(shard, "peek_many", statements=TEXTS)["answers"] == peeked

        stats = _reply(shard, "cache_stats")
        assert stats["hits"] == 2 * len(TEXTS) and stats["misses"] == len(TEXTS)
        _reply(shard, "ping")
        _reply(shard, "deregister", owner=shard.members()[0])
        assert _reply(shard, "shutdown")["bye"] is True
