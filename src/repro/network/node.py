"""The protocol node runtime.

A :class:`ProtocolNode` owns one private database's local top-k vector and a
pluggable *local computation module* (Section 3.2) — the only component that
differs between the naive and probabilistic protocols.  Nodes are reactive:
whatever carries the messages calls :meth:`handle`, the node runs its local
algorithm and hands the outgoing token to its ``send`` callable — the one
thing it needs from a transport.  The in-memory simulator
(:class:`~repro.core.session.ProtocolSession`) and the socket substrates
(:mod:`repro.deploy`) all host this class, so the token/result state machine
of Algorithms 1-2 exists once.

Round structure: the starting node emits the round-1 token; every other node
processes and forwards it within the same round; when the token returns to
the starting node, the round is complete.  The starting node then either
starts the next round or, after the configured number of rounds, circulates
the final result along the ring (the paper's termination round).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

from .message import Message, MessageType, result_message, token_message


class LocalAlgorithm(Protocol):
    """The per-node local computation module.

    Implementations live in :mod:`repro.core`; they hold the node's private
    local vector plus any per-node protocol state, and must be used by
    exactly one node.
    """

    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        """Map the received global vector to the vector passed on."""
        ...


class NodeError(RuntimeError):
    """Raised on protocol-state violations inside a node."""


RoundHook = Callable[[int], None]
#: Delivers one outgoing message towards ``message.receiver``.
Send = Callable[[Message], None]


class ProtocolNode:
    """One participant on the ring."""

    def __init__(
        self,
        node_id: str,
        algorithm: LocalAlgorithm,
        send: Send,
        *,
        is_starter: bool = False,
        total_rounds: int = 1,
        query_id: str = "",
    ) -> None:
        if total_rounds < 1:
            raise NodeError("total_rounds must be >= 1")
        self.node_id = node_id
        self.algorithm = algorithm
        self._send = send
        self.is_starter = is_starter
        self.total_rounds = total_rounds
        #: Which query's traffic this node instance handles.  One party
        #: participates in Q in-flight queries through Q node instances, each
        #: registered (by its host) on its own transport channel.
        self.query_id = query_id
        self.successor: str | None = None
        #: Final result vector, set once the RESULT token reaches this node.
        self.final_result: list[float] | None = None
        #: Last token this node emitted (round, vector) — kept on the node,
        #: not the transport, because a dropped send never reaches any log
        #: and crash recovery needs to replay exactly what was lost.
        self.last_sent_round: int = 0
        self.last_sent_vector: list[float] | None = None
        #: Called by the starter when a round completes (driver installs it to
        #: snapshot state or remap the ring between rounds).
        self.round_hook: RoundHook | None = None
        self._rounds_completed = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "starter" if self.is_starter else "member"
        return f"ProtocolNode({self.node_id!r}, {role})"

    # -- protocol actions ----------------------------------------------------

    def start(self, identity_vector: list[float]) -> None:
        """Starter only: kick off round 1 from the domain identity vector."""
        if not self.is_starter:
            raise NodeError(f"{self.node_id} is not the starting node")
        output = self.algorithm.compute(list(identity_vector), 1)
        self._forward_token(1, output)

    def handle(self, message: Message) -> None:
        """Delivery callback: the host calls this with each received message."""
        if message.type is MessageType.RESULT:
            self._handle_result(message)
        elif message.type is MessageType.TOKEN:
            self._handle_token(message)
        # CONTROL messages are driver-internal and need no node action.

    # -- internals -------------------------------------------------------------

    def _handle_token(self, message: Message) -> None:
        vector = [float(v) for v in message.payload["vector"]]
        round_number = message.round
        if self.is_starter:
            # Token returning to the starter closes round `round_number`.
            self._rounds_completed = round_number
            if self.round_hook is not None:
                self.round_hook(round_number)
            if round_number >= self.total_rounds:
                self.final_result = vector
                self._forward_result(round_number + 1, vector)
                return
            next_round = round_number + 1
            output = self.algorithm.compute(vector, next_round)
            self._forward_token(next_round, output)
        else:
            output = self.algorithm.compute(vector, round_number)
            self._forward_token(round_number, output)

    def _handle_result(self, message: Message) -> None:
        vector = [float(v) for v in message.payload["vector"]]
        if self.is_starter:
            # Result token came full circle; everyone has the answer now.
            return
        self.final_result = vector
        self._forward_result(message.round, vector)

    def _forward_token(self, round_number: int, vector: list[float]) -> None:
        self.last_sent_round = round_number
        self.last_sent_vector = list(vector)
        self._forward(token_message, round_number, vector)

    def _forward_result(self, round_number: int, vector: list[float]) -> None:
        self._forward(result_message, round_number, vector)

    def _forward(self, make_message, round_number: int, vector: list[float]) -> None:
        if self.successor is None:
            raise NodeError(f"{self.node_id} has no successor configured")
        self._send(
            make_message(
                self.node_id, self.successor, round_number, vector,
                query=self.query_id,
            )
        )

    @property
    def rounds_completed(self) -> int:
        """Rounds the starter has seen complete (starter only; 0 otherwise)."""
        return self._rounds_completed
