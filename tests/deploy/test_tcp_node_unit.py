"""Direct unit tests of TcpParty's protocol-state guards."""

import random
import socket
import threading
import time

import pytest

from repro.deploy.tcp_node import TcpNodeError, TcpParty
from repro.deploy.wire import recv_frame
from repro.network.message import token_message
from repro.network.node import NodeError


class Echo:
    def compute(self, incoming, round_number):
        return incoming


@pytest.fixture
def party():
    p = TcpParty("solo", Echo(), total_rounds=2)
    yield p
    p.shutdown()


class TestGuards:
    def test_non_starter_cannot_kick_off(self, party):
        with pytest.raises(TcpNodeError, match="not the starting party"):
            party.kick_off([1.0])

    def test_starter_without_successor_fails(self):
        starter = TcpParty("s", Echo(), is_starter=True, total_rounds=1)
        try:
            with pytest.raises(TcpNodeError, match="no successor"):
                starter.kick_off([1.0])
        finally:
            starter.shutdown()

    def test_unwired_party_receiving_a_token_fails_typed(self, party):
        # The hosted ProtocolNode would raise NodeError on the forward; the
        # substrate checks first so its serve loop records its own error.
        body = token_message("pred", "solo", 1, [1.0]).encode()
        with pytest.raises(TcpNodeError, match="no successor") as failure:
            party._handle_raw(body)
        assert not isinstance(failure.value, NodeError)
        assert party.final_result is None and not party.finished.is_set()

    def test_address_stable_after_shutdown(self, party):
        address = party.address
        party.shutdown()
        assert party.address == address

    def test_observations_start_empty(self, party):
        assert party.observations == []

    def test_double_shutdown_is_safe(self, party):
        party.shutdown()
        party.shutdown()


class TestConnectRetry:
    """Successor connects tolerate slow-starting peers via bounded retry."""

    def _party(self, **kwargs) -> TcpParty:
        return TcpParty(
            "sender",
            Echo(),
            retry_rng=random.Random(7),
            **kwargs,
        )

    def test_invalid_connect_settings_rejected(self):
        with pytest.raises(ValueError, match="connect_timeout"):
            self._party(connect_timeout=0.0)
        with pytest.raises(ValueError, match="connect_retries"):
            self._party(connect_retries=-1)
        with pytest.raises(ValueError, match="retry_base_delay"):
            self._party(retry_base_delay=0.0)

    def test_retries_reach_a_slow_starting_successor(self):
        # Reserve a port, but only start listening after a delay — the
        # sender's first connect attempts are refused.
        placeholder = socket.create_server(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        received: list[bytes] = []

        def late_listener():
            time.sleep(0.15)
            server = socket.create_server(address)
            server.settimeout(5.0)
            connection, _peer = server.accept()
            with connection:
                received.append(recv_frame(connection))
            server.close()

        listener = threading.Thread(target=late_listener, daemon=True)
        listener.start()
        party = self._party(
            connect_timeout=0.5, connect_retries=8, retry_base_delay=0.05
        )
        try:
            party.successor_id = "succ"
            party.successor_address = address
            party._send(token_message("sender", "succ", 1, [1.0]))
        finally:
            party.shutdown()
        listener.join(timeout=5.0)
        assert len(received) == 1

    def test_exhausted_retries_raise_typed_error(self):
        # A port with nothing listening: every attempt is refused.
        placeholder = socket.create_server(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        party = self._party(
            connect_timeout=0.2, connect_retries=2, retry_base_delay=0.01
        )
        try:
            party.successor_id = "succ"
            party.successor_address = address
            with pytest.raises(TcpNodeError, match="after 3 attempt"):
                party._send(token_message("sender", "succ", 1, [1.0]))
        finally:
            party.shutdown()

    def test_zero_retries_fail_fast(self):
        placeholder = socket.create_server(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        party = self._party(connect_timeout=0.2, connect_retries=0)
        try:
            party.successor_id = "succ"
            party.successor_address = address
            start = time.monotonic()
            with pytest.raises(TcpNodeError, match="after 1 attempt"):
                party._send(token_message("sender", "succ", 1, [1.0]))
            assert time.monotonic() - start < 1.0
        finally:
            party.shutdown()
