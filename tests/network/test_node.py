"""Unit tests for repro.network.node — the ring round/termination machinery."""

import pytest

from repro.network.node import NodeError, ProtocolNode
from repro.network.transport import InMemoryTransport


class EchoAlgorithm:
    """Pass-through local computation that records its invocations."""

    def __init__(self):
        self.calls: list[tuple[int, list[float]]] = []

    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        self.calls.append((round_number, list(incoming)))
        return incoming


class AddOneAlgorithm:
    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        return [incoming[0] + 1.0]


def build_ring(transport: InMemoryTransport, algorithms, total_rounds: int):
    """Three-node ring a -> b -> c -> a with 'a' as starter."""
    nodes = {}
    for node_id, algorithm in zip("abc", algorithms):
        nodes[node_id] = ProtocolNode(
            node_id,
            algorithm,
            transport.send,
            is_starter=(node_id == "a"),
            total_rounds=total_rounds,
        )
        transport.register(node_id, nodes[node_id].handle)
    nodes["a"].successor = "b"
    nodes["b"].successor = "c"
    nodes["c"].successor = "a"
    return nodes


class TestValidation:
    def test_total_rounds_must_be_positive(self):
        with pytest.raises(NodeError, match="total_rounds"):
            ProtocolNode("a", EchoAlgorithm(), InMemoryTransport().send, total_rounds=0)

    def test_only_starter_can_start(self):
        transport = InMemoryTransport()
        node = ProtocolNode("a", EchoAlgorithm(), transport.send)
        with pytest.raises(NodeError, match="not the starting node"):
            node.start([0.0])

    def test_missing_successor_detected(self):
        transport = InMemoryTransport()
        node = ProtocolNode("a", EchoAlgorithm(), transport.send, is_starter=True)
        with pytest.raises(NodeError, match="no successor"):
            node.start([0.0])


class TestRoundLoop:
    def test_single_round_terminates_with_result_everywhere(self):
        transport = InMemoryTransport()
        nodes = build_ring(transport, [AddOneAlgorithm() for _ in range(3)], 1)
        nodes["a"].start([0.0])
        transport.run_until_idle()
        # Each of three nodes added 1 in round 1.
        assert nodes["a"].final_result == [3.0]
        assert nodes["b"].final_result == [3.0]
        assert nodes["c"].final_result == [3.0]

    def test_multi_round_invokes_algorithm_per_round(self):
        transport = InMemoryTransport()
        echoes = [EchoAlgorithm() for _ in range(3)]
        nodes = build_ring(transport, echoes, 3)
        nodes["a"].start([0.0])
        transport.run_until_idle()
        for echo in echoes:
            assert [r for r, _ in echo.calls] == [1, 2, 3]
        assert nodes["a"].rounds_completed == 3

    def test_round_hook_called_per_round(self):
        transport = InMemoryTransport()
        nodes = build_ring(transport, [EchoAlgorithm() for _ in range(3)], 2)
        completed = []
        nodes["a"].round_hook = completed.append
        nodes["a"].start([0.0])
        transport.run_until_idle()
        assert completed == [1, 2]

    def test_token_and_result_traffic_counts(self):
        transport = InMemoryTransport()
        nodes = build_ring(transport, [EchoAlgorithm() for _ in range(3)], 2)
        nodes["a"].start([0.0])
        transport.run_until_idle()
        # 3 token messages per round x 2 rounds + 3 result messages.
        assert transport.stats.per_type["token"] == 6
        assert transport.stats.per_type["result"] == 3

    def test_result_broadcast_stops_at_starter(self):
        transport = InMemoryTransport()
        nodes = build_ring(transport, [EchoAlgorithm() for _ in range(3)], 1)
        nodes["a"].start([0.0])
        delivered = transport.run_until_idle()
        # No infinite result circulation: exactly 3 tokens + 3 results.
        assert delivered == 6
        assert nodes["a"].rounds_completed == 1
