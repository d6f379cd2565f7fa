"""A hit is one object per spelling, on every deployment.

A flat or local-shard hit hands back the one frozen outcome its cache entry
holds.  A process shard decodes each reply entry against the text it sent,
so its outcome names the gateway's own text object, and a spelling's repeat
hits whose fields are bit for bit the same return one shared outcome.  A DP
free re-serve of unchanged inner answers is one object too, flat and
sharded.
"""

from __future__ import annotations

import io
import json
import socket
from contextlib import contextmanager

import pytest

from repro.deploy.wire import PREFIX_BYTES
from repro.federation.coordinator import QueryOutcome
from repro.privacy.dp import DpPolicy
from repro.sharding import ShardUnavailable, build_topology, sharded_federation
from repro.sharding.protocol import encode_outcome
from repro.sharding.shards import ProcessShard
from repro.sharding.topology import single_federation


def _topology(parties_per_shard: int = 3):
    return build_topology(
        shards=2, parties_per_shard=parties_per_shard, tables=4, rows_per_table=12,
        partitioned=1, seed=29,
    )


def _routed(topology, sharded) -> tuple[str, int]:
    """A routed table and the shard serving it."""
    table = next(t for t in topology.tables if t not in topology.partitioned)
    return table, sharded.router.route(table)


# -- real worker processes ---------------------------------------------------------


def test_repeat_hits_of_a_routed_spelling_over_process_shards_are_one_object():
    topology = _topology()
    local = sharded_federation(topology)
    remote = sharded_federation(topology, processes=True)
    try:
        table, _shard = _routed(topology, remote)
        text = f"SELECT TOP 2 value FROM {table}"
        assert not remote.execute(text).cached  # the miss fills the cache
        hits = [remote.try_cached(text) for _ in range(3)]
        hits += [remote.execute(text) for _ in range(2)]  # batch-path hits
        assert all(hit is hits[0] for hit in hits)
        shared = hits[0]
        assert shared.cached and shared.statement is text
        local.execute(text)
        assert local.try_cached(text) == shared  # the local twin, field for field
    finally:
        remote.close()


def test_the_next_hit_after_a_deregister_is_a_new_object():
    topology = _topology(parties_per_shard=4)
    remote = sharded_federation(topology, processes=True)
    try:
        table, shard = _routed(topology, remote)
        text = f"SELECT TOP 2 value FROM {table}"
        remote.execute(text)
        before = remote.try_cached(text)
        assert before is remote.try_cached(text)
        remote.deregister(remote.shards[shard].members()[0], shard=shard)
        assert remote.try_cached(text) is None  # the membership moved the key
        remote.execute(text)
        after = remote.try_cached(text)
        assert after.cached and after is not before
    finally:
        remote.close()


# -- a scripted worker: the bit rule ---------------------------------------------------


def _frame(value: object) -> bytes:
    body = json.dumps(value).encode()
    return len(body).to_bytes(PREFIX_BYTES, "big") + body


@contextmanager
def _scripted(*replies: object):
    """A process shard whose worker has already written ``replies``."""
    ours, theirs = socket.socketpair()
    ours.settimeout(0.5)
    try:
        theirs.sendall(b"".join(_frame(reply) for reply in replies))
        shard = ProcessShard(object(), io.BytesIO(), index=0, timeout=0.5)
        shard._sock = ours
        yield shard
    finally:
        ours.close()
        theirs.close()


STATEMENT = "SELECT MAX(value) FROM t00"


def _hit(value: float, **fields) -> dict:
    outcome = QueryOutcome(
        statement=STATEMENT, values=(value,), protocol="probabilistic",
        rounds=0, messages=0, cached=True,
    )
    return {"ok": True, "outcome": {**encode_outcome(outcome), **fields}}


def test_bit_identical_hits_share_and_a_zeros_sign_never_does():
    with _scripted(
        _hit(0.0), _hit(0.0), _hit(-0.0), _hit(-0.0), _hit(0.0),
        _hit(0.0, simulated_seconds=-0.0),
    ) as shard:
        first, same, negative, negative_again, positive, other_clock = (
            shard.try_cached(STATEMENT) for _ in range(6)
        )
    assert same is first
    assert negative is not first and str(negative.values[0]) == "-0.0"
    assert negative_again is negative
    assert positive is not negative and positive == first
    assert other_clock is not positive


def test_two_nans_never_share_an_outcome():
    with _scripted(_hit(float("nan")), _hit(float("nan"))) as shard:
        first, second = shard.try_cached(STATEMENT), shard.try_cached(STATEMENT)
    assert first is not second


def test_misses_are_never_shared():
    miss = {**_hit(7.0)["outcome"], "cached": False, "rounds": 4, "messages": 15}
    reply = {"ok": True, "results": [{"ok": True, "outcome": miss}]}
    with _scripted(reply, reply) as shard:
        (first,), (second,) = (shard.execute_many_settled([STATEMENT]) for _ in range(2))
    assert first == second and first is not second
    assert first.statement is STATEMENT


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param({"statement": "SELECT MAX(value) FROM t01"}, id="another-statement"),
        pytest.param({"protocol": "telepathy"}, id="protocol-outside-the-set"),
    ],
)
def test_a_reply_answering_something_else_yields_no_outcome(entry):
    with _scripted(_hit(7.0, **entry)) as shard:
        with pytest.raises(ShardUnavailable, match="answers|unknown protocol"):
            shard.try_cached(STATEMENT)
        assert shard._sock is None


# -- DP free re-serves: flat and local shards -----------------------------------------


@pytest.mark.parametrize("deployment", ["flat", "sharded"])
def test_a_dp_free_re_serve_is_one_object_until_a_charged_re_release(deployment):
    topology, dp = _topology(), DpPolicy(seed=5)
    if deployment == "flat":
        federation = first_shard = single_federation(topology, dp=dp)
    else:
        federation = sharded_federation(topology, dp=dp)
        first_shard = federation.shards[0].federation
    table = next(
        t for t in topology.tables
        if t not in topology.partitioned
        and (deployment == "flat" or federation.router.route(t) == 0)
    )
    text = f"SELECT COUNT(value) FROM {table} WITH SLO(dp_epsilon=1.0)"
    assert not federation.execute(text).cached  # the charged release
    reserves = [federation.try_cached(text), federation.try_cached(text)]
    reserves.append(federation.execute(text))  # free on the batch path too
    assert reserves[0].cached and all(r is reserves[0] for r in reserves)
    owner = sorted(first_shard.members)[0]
    first_shard._parties[owner].insert(table, {"value": 7})
    assert federation.try_cached(text) is None  # the answer moved: must charge
    recharged = federation.execute(text)
    assert not recharged.cached and recharged is not reserves[0]


# -- a scripted worker: a repeat builds nothing ---------------------------------------


@pytest.fixture
def built(monkeypatch) -> list:
    """Every ``QueryOutcome`` constructed from here on."""
    made: list = []
    init = QueryOutcome.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QueryOutcome, "__init__", counting)
    return made


#: A hit reply, encoded before any test counts constructions.
HIT = _hit(7.0)


def test_a_bit_identical_repeat_returns_the_held_outcome_and_builds_none(built):
    entry = HIT["outcome"]
    with _scripted(
        {"ok": True, "outcome": entry},
        {"ok": True, "outcome": entry},
        {"ok": True, "outcomes": [entry]},
        {"ok": True, "results": [{"ok": True, "outcome": entry}]},
    ) as shard:
        held = shard.try_cached(STATEMENT)
        assert len(built) == 1
        repeats = [
            shard.try_cached(STATEMENT),
            shard.try_cached_many([STATEMENT])()[0],
            shard.execute_many_settled([STATEMENT])[0],  # a batch-path hit
        ]
    assert all(repeat is held for repeat in repeats)
    assert built == [held]


NAN = float("nan")


@pytest.mark.parametrize(
    "first, then",
    [
        pytest.param(_hit(0.0), _hit(-0.0), id="zero-sign"),
        pytest.param(HIT, _hit(8.0), id="value"),
        pytest.param(HIT, _hit(7.0, rounds=1), id="rounds"),
        pytest.param(HIT, _hit(7.0, messages=1), id="messages"),
        pytest.param(HIT, _hit(7.0, average_lop=0.5), id="average_lop"),
        pytest.param(_hit(NAN), _hit(NAN), id="nan"),
    ],
)
def test_a_hit_that_differs_in_any_bit_is_a_new_outcome(built, first, then):
    with _scripted(first, then) as shard:
        held, repeat = shard.try_cached(STATEMENT), shard.try_cached(STATEMENT)
    assert repeat is not held
    assert built == [held, repeat]


def test_a_fresh_table_after_a_deregister_builds_a_new_outcome(built):
    with _scripted(HIT, {"ok": True}, HIT) as shard:
        held = shard.try_cached(STATEMENT)
        shard.deregister("org00x00")
        after = shard.try_cached(STATEMENT)
    assert after == held and after is not held
    assert built == [held, after]
