"""Unit tests for repro.network.transport."""

import pytest

from repro.network.failures import FailureInjector
from repro.network.message import token_message
from repro.network.transport import LINK_SECONDS, InMemoryTransport, TransportError


def collector():
    received = []
    return received, received.append


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(TransportError, match="already registered"):
            transport.register("a", lambda m: None)

    def test_unknown_receiver_rejected(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(TransportError, match="unknown receiver"):
            transport.send(token_message("a", "ghost", 1, [1.0]))

class TestDelivery:
    def test_in_order_delivery_with_constant_latency(self):
        transport = InMemoryTransport()
        received, handler = collector()
        transport.register("a", lambda m: None)
        transport.register("b", handler)
        for r in (1, 2, 3):
            transport.send(token_message("a", "b", r, [float(r)]))
        transport.run_until_idle()
        assert [m.round for m in received] == [1, 2, 3]

    def test_clock_advances(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)
        transport.register("b", lambda m: None)
        transport.send(token_message("a", "b", 1, [1.0]))
        transport.run_until_idle()
        assert transport.now == LINK_SECONDS

    def test_deliver_next_empty_queue(self):
        assert InMemoryTransport().deliver_next() is None

    def test_stats_recorded(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)
        transport.register("b", lambda m: None)
        transport.send(token_message("a", "b", 1, [1.0]))
        transport.run_until_idle()
        assert transport.stats.messages_total == 1
        assert transport.stats.bytes_total > 0

    def test_run_until_idle_bounds_deliveries(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)

        def ping_pong(message):
            transport.send(token_message("b", "b", message.round + 1, [1.0]))

        transport.register("b", ping_pong)
        transport.send(token_message("a", "b", 1, [1.0]))
        with pytest.raises(TransportError, match="did not quiesce"):
            transport.run_until_idle(max_deliveries=50)


class TestFailures:
    def test_messages_to_crashed_node_dropped(self):
        failures = FailureInjector()
        transport = InMemoryTransport(failures=failures)
        received, handler = collector()
        transport.register("a", lambda m: None)
        transport.register("b", handler)
        failures.crash("b")
        transport.send(token_message("a", "b", 1, [1.0]))
        transport.run_until_idle()
        assert received == []
        assert transport.dropped == 1

    def test_crash_after_send_drops_at_delivery(self):
        failures = FailureInjector()
        transport = InMemoryTransport(failures=failures)
        received, handler = collector()
        transport.register("a", lambda m: None)
        transport.register("b", handler)
        transport.send(token_message("a", "b", 1, [1.0]))
        failures.crash("b")
        transport.run_until_idle()
        assert received == []

    def test_event_log_records_deliveries_only(self):
        failures = FailureInjector()
        transport = InMemoryTransport(failures=failures)
        transport.register("a", lambda m: None)
        transport.register("b", lambda m: None)
        failures.crash("b")
        transport.send(token_message("a", "b", 1, [1.0]))
        transport.run_until_idle()
        assert len(transport.event_log) == 0
