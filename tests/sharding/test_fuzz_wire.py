"""Fuzz the shard wire: hostile replies are typed, bounded in time, never a charge.

Modelled on ``tests/network/test_fuzz_decode.py``.  A process shard reads
bytes another process wrote, so each layer of that read is attacked with
arbitrary input: the pure decoders with arbitrary JSON values, the frame
reader with arbitrary bytes, and :class:`ProcessShard` itself with replies
that are truncated, oversized, stalled, or valid JSON of the wrong shape.
The only outcomes allowed are a decoded value, the worker's own well-formed
rejection (``{"ok": false, ...}`` -> ``ShardError``), or
:class:`ShardUnavailable` naming the shard — within its ``timeout``.

The shard under test talks to one end of a ``socketpair`` whose other end
already holds the scripted reply, so no worker process or thread is needed
and every example is deterministic.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import time
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.deploy.wire import MAX_FRAME_BYTES, PREFIX_BYTES, WireError
from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.service import QueryService
from repro.sharding import (
    ShardedFederation,
    ShardError,
    ShardUnavailable,
    build_topology,
    local_shards,
)
from repro.sharding.protocol import (
    decode_outcome,
    decode_settled,
    encode_outcome,
    recv_json,
)
from repro.sharding.federation import _gather
from repro.sharding.router import ShardRouter, TenantPolicy
from repro.sharding.shards import ProcessShard

SHARD_INDEX = 3
TIMEOUT = 0.2

#: Keys the decoders look for, so generated objects reach past the first check.
WIRE_KEYS = st.sampled_from(
    [
        "ok", "outcome", "results", "statement", "values", "protocol", "rounds",
        "messages", "cached", "simulated_seconds", "error", "message", "members",
        "hits", "misses", "average_lop", "answer", "outcomes", "answers",
    ]
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included: json round-trips them
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(WIRE_KEYS | st.text(max_size=3), children, max_size=6),
    max_leaves=12,
)

VALID_OUTCOME = encode_outcome(
    QueryOutcome(
        statement="SELECT TOP 2 value FROM t00",
        values=(9.0, 7.0),
        protocol="probabilistic",
        rounds=4,
        messages=15,
        cached=False,
        simulated_seconds=0.015,
        average_lop=0.0625,
    )
)


@st.composite
def damaged_outcomes(draw):
    """A valid outcome with one field replaced by (or stripped to) anything."""
    outcome = dict(VALID_OUTCOME)
    field = draw(st.sampled_from(sorted(outcome)))
    if draw(st.booleans()):
        del outcome[field]
    else:
        outcome[field] = draw(JSON_VALUES)
    return outcome


def framed(body: bytes) -> bytes:
    return len(body).to_bytes(PREFIX_BYTES, "big") + body


def reply_bytes(value: object) -> bytes:
    return framed(json.dumps(value).encode())


# -- the pure decoders ---------------------------------------------------------


@given(payload=JSON_VALUES | damaged_outcomes())
@example(payload={**VALID_OUTCOME, "rounds": float("inf")})  # int(inf): OverflowError
@example(payload={**VALID_OUTCOME, "values": "12"})  # a string is not a list of floats
@example(payload={**VALID_OUTCOME, "values": [10**400]})  # float(huge int)
@example(payload={**VALID_OUTCOME, "average_lop": float("nan")})
@settings(max_examples=200, deadline=None)
def test_decode_outcome_returns_an_outcome_or_wire_error(payload):
    try:
        assert isinstance(decode_outcome(payload), QueryOutcome)
    except WireError:
        pass


@pytest.mark.parametrize("lop", [None, 0, 0.0625, 1])
def test_average_lop_is_none_or_in_the_unit_interval(lop):
    outcome = decode_outcome({**VALID_OUTCOME, "average_lop": lop})
    assert outcome.average_lop == lop


@pytest.mark.parametrize(
    "lop", [-0.0625, 1.5, float("nan"), float("inf"), 10**400, True, "0.5", [0.5]]
)
def test_average_lop_outside_the_unit_interval_is_a_wire_error(lop):
    with pytest.raises(WireError, match="average_lop"):
        decode_outcome({**VALID_OUTCOME, "average_lop": lop})


@given(
    payload=JSON_VALUES
    | st.lists(
        st.fixed_dictionaries({"ok": st.just(True), "outcome": damaged_outcomes()})
        | JSON_VALUES,
        max_size=3,
    )
)
@example(payload={"ok": True})  # a dict iterates as its keys
@example(payload=[{"ok": True, "outcome": {}}])
@settings(max_examples=200, deadline=None)
def test_decode_settled_returns_a_list_or_wire_error(payload):
    try:
        settled = decode_settled(payload)
    except WireError:
        return
    assert all(isinstance(r, (QueryOutcome, QueryRefused)) for r in settled)


# -- the frame reader ----------------------------------------------------------


@contextmanager
def wire(reply: bytes, *, hang_up: bool = True):
    """A connected socket whose peer has already written ``reply``.

    ``hang_up`` closes the peer's end afterwards (EOF follows the bytes);
    otherwise the peer stays silent and only the timeout ends a short read.
    """
    ours, theirs = socket.socketpair()
    ours.settimeout(TIMEOUT)
    try:
        theirs.sendall(reply)
        if hang_up:
            theirs.shutdown(socket.SHUT_WR)
        yield ours
    finally:
        ours.close()
        theirs.close()


@given(body=st.binary(max_size=256))
@example(body=b"[" * 100_000)  # json.loads: RecursionError
@example(body=b"\xff\xfe")  # not UTF-8
@example(body=b"[]")  # JSON, but not an object
@settings(max_examples=150, deadline=None)
def test_recv_json_returns_an_object_or_wire_error(body):
    with wire(framed(body)) as sock:
        try:
            assert isinstance(recv_json(sock), dict)
        except WireError:
            pass


# -- ProcessShard: the typed boundary -----------------------------------------


class _NoProcess:
    """Stands in for the forked worker's handle: there is no worker."""


@contextmanager
def scripted_shard(reply: bytes, *, hang_up: bool = True):
    with wire(reply, hang_up=hang_up) as sock:
        shard = ProcessShard(
            _NoProcess(), io.BytesIO(), index=SHARD_INDEX, timeout=TIMEOUT
        )
        shard._sock = sock
        yield shard


CALLS = {
    "deregister": lambda shard: shard.deregister("org00"),
    "cache_stats": lambda shard: shard.cache_stats(),
    "try_cached": lambda shard: shard.try_cached("SELECT MAX(value) FROM t00"),
    "peek": lambda shard: shard.peek("SELECT MAX(value) FROM t00"),
    "try_cached_many": lambda shard: shard.try_cached_many(
        ["SELECT SUM(value) FROM t00", "SELECT COUNT(value) FROM t00"]
    )(),
    "peek_many": lambda shard: shard.peek_many(
        ["SELECT SUM(value) FROM t00", "SELECT COUNT(value) FROM t00"]
    )(),
    "execute_many_settled": lambda shard: shard.execute_many_settled(
        ["SELECT MAX(value) FROM t00"]
    ),
}


def call_within_timeout(shard, call):
    """``call(shard)``'s value; asserts the typed, bounded failure contract."""
    start = time.perf_counter()
    try:
        return call(shard)
    except ShardUnavailable as exc:
        assert exc.shard == SHARD_INDEX
        assert shard._sock is None, "a failed exchange must drop its socket"
        raise
    finally:
        assert time.perf_counter() - start < TIMEOUT + 1.0
        assert not shard._lock.locked(), "every exchange must release the shard"


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@given(reply=JSON_VALUES)
@example(reply=[])
@example(reply={"ok": True})
@example(reply={"ok": True, "outcome": {}, "results": [{"ok": True, "outcome": {}}]})
@example(reply={"ok": True, "outcome": {**VALID_OUTCOME, "values": "x"}})
@example(reply={"ok": True, "answer": {"values": "x", "protocol": "probabilistic"}})
@example(reply={"ok": True, "results": []})  # fewer results than statements
@example(reply={"ok": True, "outcomes": [VALID_OUTCOME], "answers": [None]})  # 1 of 2
@example(reply={"ok": True, "outcomes": [None, {}], "answers": [None, {}]})
@example(reply={"ok": True, "outcomes": "xy", "answers": {"a": 1, "b": 2}})
@example(reply={"ok": 1})  # truthy is not True
@settings(max_examples=60, deadline=None)
def test_any_json_reply_decodes_or_is_shard_unavailable(call, reply):
    with scripted_shard(reply_bytes(reply)) as shard:
        try:
            call_within_timeout(shard, call)
        except ShardUnavailable:
            pass
        except ShardError:
            # Only the worker's own well-formed rejection may say so.
            assert isinstance(reply, dict) and reply.get("ok") is False


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize(
    "reply, hang_up",
    [
        pytest.param(b"", True, id="closed-before-a-byte"),
        pytest.param(b"\x00\x00", True, id="truncated-prefix"),
        pytest.param(reply_bytes({"ok": True})[:-3], True, id="truncated-body"),
        pytest.param(
            (MAX_FRAME_BYTES + 1).to_bytes(PREFIX_BYTES, "big"), False, id="oversized"
        ),
        pytest.param(b"", False, id="stalled-before-a-byte"),
        pytest.param(reply_bytes({"ok": True})[:-3], False, id="stalled-mid-frame"),
    ],
)
def test_broken_frames_are_shard_unavailable_within_the_timeout(call, reply, hang_up):
    with scripted_shard(reply, hang_up=hang_up) as shard:
        with pytest.raises(ShardUnavailable):
            call_within_timeout(shard, call)


def test_a_fanout_reads_every_posted_reply_before_it_raises():
    """``_gather`` writes to every shard, then reads every reply: a shard
    whose reply is broken still leaves the healthy one's exchange complete
    (its socket kept, in step) and both shards released."""
    texts = ["SELECT SUM(value) FROM t00"]
    with scripted_shard(reply_bytes({"ok": True, "answers": [None]})) as healthy:
        with scripted_shard(b"") as broken:
            with pytest.raises(ShardUnavailable):
                _gather([broken, healthy], lambda shard: shard.peek_many(texts))
            assert broken._sock is None and healthy._sock is not None
            assert not broken._lock.locked() and not healthy._lock.locked()


def test_a_live_database_is_refused_before_the_wire():
    """``ProcessShard.register``: a database object cannot cross the wire, so
    enrolling one on a process shard is a typed refusal that sends nothing."""
    from repro.database.database import database_from_values

    with scripted_shard(b"") as shard:
        with pytest.raises(ShardError, match="not supported"):
            shard.register(database_from_values("org99", [1.0]))
        assert shard._sock is not None  # nothing was sent, nothing dropped


# -- and above it: a miss on the fast path, a typed refusal on the batch path --


MALFORMED_REPLIES = [
    pytest.param([], id="not-an-object"),
    pytest.param({"ok": True, "outcome": {}}, id="empty-outcome"),
    pytest.param(
        {
            "ok": True,
            "outcome": {**VALID_OUTCOME, "values": "x"},
            "results": [{"ok": True, "outcome": {**VALID_OUTCOME, "values": "x"}}],
        },
        id="values-not-a-list",
    ),
]


@contextmanager
def federation_with_scripted_shard(reply: object):
    """Two shards: a healthy local one, and one whose worker sends ``reply``."""
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=8, partitioned=0, seed=5
    )
    healthy = local_shards(topology)[0]
    with scripted_shard(reply_bytes(reply)) as scripted:
        scripted.index = 1
        scripted._members = ("a", "b", "c")
        federation = ShardedFederation(
            [healthy, scripted], router=ShardRouter(2), domain=topology.domain
        )
        federation.set_tenant("tenant", TenantPolicy(lop_budget=100.0))
        by_shard = {0: [], 1: []}
        for table in topology.tables:
            by_shard[federation.router.route(table)].append(table)
        yield federation, by_shard


@pytest.mark.parametrize("reply", MALFORMED_REPLIES)
def test_malformed_reply_is_a_miss_on_try_cached_and_on_submit(reply):
    with federation_with_scripted_shard(reply) as (federation, by_shard):
        statement = f"SELECT MAX(value) FROM {by_shard[1][0]}"
        assert federation.try_cached(statement, issuer="tenant") is None
        assert federation.router.tenant("tenant").lop_spent == 0.0
    with federation_with_scripted_shard(reply) as (federation, by_shard):
        statement = f"SELECT MAX(value) FROM {by_shard[1][0]}"

        async def scenario():
            async with QueryService(federation) as service:
                # The fast path reads a miss; the batch then finds the shard
                # gone (its socket was dropped) and refuses typed.
                with pytest.raises(ShardUnavailable) as refusal:
                    await service.submit(statement, issuer="tenant")
                return refusal.value

        assert asyncio.run(scenario()).shard == 1
        assert federation.router.tenant("tenant").lop_spent == 0.0


@pytest.mark.parametrize("reply", MALFORMED_REPLIES)
def test_malformed_reply_refuses_exactly_that_shards_statements(reply):
    with federation_with_scripted_shard(reply) as (federation, by_shard):
        healthy = [
            f"SELECT MAX(value) FROM {by_shard[0][0]}",
            f"SELECT TOP 2 value FROM {by_shard[0][0]}",
        ]
        doomed = f"SELECT MAX(value) FROM {by_shard[1][0]}"
        served, refused, also_served = federation.execute_many_settled(
            [healthy[0], doomed, healthy[1]], issuer="tenant"
        )
        assert isinstance(served, QueryOutcome) and isinstance(also_served, QueryOutcome)
        assert isinstance(refused, QueryRefused)
        assert isinstance(refused.error, ShardUnavailable)
        assert refused.error.shard == 1
        assert federation.shard_unavailable == {1: 1}
        spent = federation.router.tenant("tenant").lop_spent
    # Never a charge: the tenant paid for the two statements that ran, no more.
    with federation_with_scripted_shard(reply) as (twin, _):
        twin.execute_many_settled(healthy, issuer="tenant")
        assert twin.router.tenant("tenant").lop_spent == spent > 0.0
