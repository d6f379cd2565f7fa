"""Multi-query transport tests: channels, fairness, delivery accounting.

The pipelined execution engine hangs many independent protocol runs off one
shared :class:`InMemoryTransport`, each under its own channel (the message's
``query`` tag).  These tests pin down the contracts that make that safe:
per-channel registration and accounting isolation, strictly send-ordered
delivery across channels (fairness — no query can starve another), and
``max_deliveries`` semantics under multi-query load.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.failures import FailureInjector
from repro.network.message import token_message
from repro.network.transport import (
    DEFAULT_MAX_DELIVERIES,
    LINK_SECONDS,
    InMemoryTransport,
    TransportError,
)


def make_message(sender, receiver, *, query="", round_number=1, vector=(1.0,)):
    return token_message(sender, receiver, round_number, list(vector), query=query)


class TestChannelRegistration:
    def test_same_node_registers_once_per_channel(self):
        transport = InMemoryTransport()
        seen = []
        transport.register("alice", seen.append)
        transport.register("alice", seen.append, channel="q1")
        transport.register("alice", seen.append, channel="q2")
        for channel in ("", "q1", "q2"):
            transport.send(make_message("bob", "alice", query=channel))
        transport.run_until_idle()
        assert [m.query for m in seen] == ["", "q1", "q2"]

    def test_duplicate_channel_registration_rejected(self):
        transport = InMemoryTransport()
        transport.register("alice", lambda m: None, channel="q1")
        with pytest.raises(TransportError, match="already registered"):
            transport.register("alice", lambda m: None, channel="q1")

    def test_send_requires_matching_channel(self):
        transport = InMemoryTransport()
        transport.register("bob", lambda m: None, channel="q1")
        with pytest.raises(TransportError, match="unknown receiver"):
            transport.send(make_message("alice", "bob"))  # channel "" not registered
        with pytest.raises(TransportError, match="unknown receiver"):
            transport.send(make_message("alice", "bob", query="q2"))
        transport.send(make_message("alice", "bob", query="q1"))
        transport.run_until_idle()
        assert transport.stats.messages_total == 1

    def test_delivery_routed_to_channel_handler(self):
        transport = InMemoryTransport()
        received = {"": [], "q1": []}
        transport.register("bob", received[""].append)
        transport.register("bob", received["q1"].append, channel="q1")
        transport.send(make_message("alice", "bob"))
        transport.send(make_message("alice", "bob", query="q1"))
        transport.run_until_idle()
        assert [m.query for m in received[""]] == [""]
        assert [m.query for m in received["q1"]] == ["q1"]

class TestChannelAccounting:
    def test_per_channel_stats_isolated(self):
        transport = InMemoryTransport()
        for q in ("q1", "q2"):
            transport.open_channel(q)
            transport.register("bob", lambda m: None, channel=q)
        for _ in range(3):
            transport.send(make_message("alice", "bob", query="q1"))
        transport.send(make_message("alice", "bob", query="q2"))
        transport.run_until_idle()
        assert transport.open_channel("q1").stats.messages_total == 3
        assert transport.open_channel("q2").stats.messages_total == 1
        # Transport-wide stats still see everything.
        assert transport.stats.messages_total == 4
        assert transport.stats.per_query["q1"] == 3

    def test_per_channel_event_logs_isolated(self):
        transport = InMemoryTransport()
        for q in ("q1", "q2"):
            transport.open_channel(q)
            transport.register("bob", lambda m: None, channel=q)
        transport.send(make_message("alice", "bob", query="q1", round_number=1))
        transport.send(make_message("alice", "bob", query="q2", round_number=7))
        transport.run_until_idle()
        assert transport.open_channel("q1").event_log.rounds() == [1]
        assert transport.open_channel("q2").event_log.rounds() == [7]

    def test_last_delivery_at_tracks_channel_completion(self):
        transport = InMemoryTransport()
        for q in ("q1", "q2"):
            transport.open_channel(q)
            transport.register("bob", lambda m: None, channel=q)
        transport.send(make_message("alice", "bob", query="q1"))
        transport.run_until_idle()
        transport.send(make_message("alice", "bob", query="q2"))
        transport.run_until_idle()
        assert transport.open_channel("q1").last_delivery_at == LINK_SECONDS
        assert transport.open_channel("q2").last_delivery_at == 2 * LINK_SECONDS
        assert transport.open_channel("q1").deliveries == 1
        assert transport.open_channel("q2").deliveries == 1


class TestFairness:
    """Delivery is strictly send-ordered across channels."""

    def test_equal_latency_interleaves_round_robin(self):
        # Q queries sending at the same instants deliver strictly
        # interleaved, never one query's whole run before another's.
        transport = InMemoryTransport()
        order = []
        queries = [f"q{i}" for i in range(4)]
        for q in queries:
            transport.open_channel(q)
            transport.register("bob", lambda m: order.append(m.query), channel=q)
        for round_number in (1, 2, 3):
            for q in queries:
                transport.send(
                    make_message("alice", "bob", query=q, round_number=round_number)
                )
            transport.run_until_idle()
        assert order == queries * 3

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("send"), st.integers(0, 3), st.sampled_from("bcd")),
                st.tuples(st.just("deliver"), st.integers(1, 3)),
                st.tuples(st.just("crash"), st.sampled_from("bcd")),
            ),
            max_size=60,
        ),
        drop_seed=st.integers(0, 2**16),
    )
    def test_delivery_is_time_and_channel_ordered(self, steps, drop_seed):
        # The queue is a FIFO because every link has the same delay: the
        # clock never runs backwards, so a later send is never due earlier.
        # Random interleavings of sends and deliveries across channels, with
        # drops at send time and crashed receivers dropped at delivery, must
        # keep delivery timestamps non-decreasing and each channel's
        # deliveries in that channel's send order.
        failures = FailureInjector(drop_probability=0.2, rng=random.Random(drop_seed))
        transport = InMemoryTransport(failures=failures)
        channels = [f"q{i}" for i in range(4)]
        stamps, delivered = [], {q: [] for q in channels}
        for q in channels:
            accounting = transport.open_channel(q)
            accounting.on_delivery = lambda message, at: stamps.append(at)
            for node in "abcd":
                transport.register(
                    node, lambda m, q=q: delivered[q].append(m.round), channel=q
                )
        sent = {q: [] for q in channels}
        for step in steps:
            if step[0] == "send":
                q = channels[step[1]]
                sent[q].append(len(sent[q]) + 1)
                transport.send(
                    make_message("a", step[2], query=q, round_number=sent[q][-1])
                )
            elif step[0] == "deliver":
                for _ in range(step[1]):
                    transport.deliver_next()
            else:
                failures.crash(step[1])
        transport.run_until_idle()
        assert stamps == sorted(stamps)
        for q in channels:
            assert delivered[q] == sorted(delivered[q])
            assert set(delivered[q]) <= set(sent[q])

    @settings(max_examples=30, deadline=None)
    @given(rounds=st.integers(min_value=1, max_value=6))
    def test_no_starvation_under_sustained_load(self, rounds):
        # A chatty query cannot starve a quiet one: every queued message is
        # eventually delivered and each channel's count is exact.
        transport = InMemoryTransport()
        counts = {"busy": 0, "quiet": 0}

        def handler_for(q):
            def handler(message):
                counts[q] += 1

            return handler

        for q in counts:
            transport.open_channel(q)
            transport.register("bob", handler_for(q), channel=q)
        for _ in range(rounds):
            for _ in range(10):
                transport.send(make_message("alice", "bob", query="busy"))
            transport.send(make_message("alice", "bob", query="quiet"))
        transport.run_until_idle()
        assert counts == {"busy": rounds * 10, "quiet": rounds}
        assert transport.open_channel("quiet").deliveries == rounds


class TestMaxDeliveries:
    def test_bound_counts_all_channels(self):
        transport = InMemoryTransport()
        for q in ("q1", "q2"):
            transport.register("bob", lambda m: None, channel=q)
        for q in ("q1", "q2"):
            for _ in range(3):
                transport.send(make_message("alice", "bob", query=q))
        # 6 messages across 2 channels: a bound of 5 must trip.
        with pytest.raises(TransportError, match="did not quiesce"):
            transport.run_until_idle(max_deliveries=5)

    def test_scaled_bound_covers_multi_query_load(self):
        transport = InMemoryTransport()
        queries = ("q1", "q2", "q3")
        for q in queries:
            transport.register("bob", lambda m: None, channel=q)
        for q in queries:
            for _ in range(4):
                transport.send(make_message("alice", "bob", query=q))
        delivered = transport.run_until_idle(
            max_deliveries=DEFAULT_MAX_DELIVERIES * len(queries)
        )
        assert delivered == 12
