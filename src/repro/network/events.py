"""Passive-logging event capture for privacy analysis.

The semi-honest adversary "can later use what it sees during execution of the
protocol" (Section 2.1).  What a node sees is exactly the sequence of token
messages delivered to it.  The event log records every delivery so that,
after a run, adversary models in :mod:`repro.privacy` can replay any node's
(or coalition's) view and quantify the resulting loss of privacy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .message import Message, MessageType


@dataclass(frozen=True)
class Observation:
    """One message as seen by its receiver.

    ``vector`` is the global vector carried by the token; scalar protocols
    (max/min) use length-1 vectors.  ``kind`` distinguishes in-protocol
    token traffic from the final-result broadcast — privacy analysis scores
    only the former (the result is public by definition).
    """

    round: int
    sender: str
    receiver: str
    vector: tuple[float, ...]
    msg_id: int
    kind: str = "token"
    #: Query tag for multi-query traffic ("" for single-query runs).
    query: str = ""

    @classmethod
    def from_message(cls, message: Message) -> "Observation":
        vector = tuple(message.payload.get("vector", ()))
        return cls(
            round=message.round,
            sender=message.sender,
            receiver=message.receiver,
            vector=vector,
            msg_id=message.msg_id,
            kind=message.type.value,
            query=message.query,
        )


#: node -> round -> token vector.
_VectorsByNode = dict[str, dict[int, tuple[float, ...]]]


class _TokenIndex(NamedTuple):
    """What ``outputs_of`` / ``inputs_of`` / ``rounds`` answer from."""

    outputs: _VectorsByNode
    inputs: _VectorsByNode
    rounds: list[int]


class EventLog:
    """Ordered record of all token/result deliveries in one protocol run."""

    #: Lazily built; dropped whenever the log grows.
    _index: _TokenIndex | None = None

    def __init__(self) -> None:
        self._observations: list[Observation] = []

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def record(self, message: Message) -> None:
        if message.type in (MessageType.TOKEN, MessageType.RESULT):
            self._observations.append(Observation.from_message(message))
            self._index = None

    # -- token index ---------------------------------------------------------

    def token_outputs(self) -> Iterator[tuple[int, str, tuple[float, ...]]]:
        """``(round, sender, vector)`` of every token hop, in log order.

        The one feed of the privacy estimators (:mod:`repro.privacy.lop`):
        the message-free kernels answer it from their compact pass records
        without building a single :class:`Observation`.
        """
        return (
            (o.round, o.sender, o.vector)
            for o in self._observations
            if o.kind == "token"
        )

    def _token_index(self) -> _TokenIndex:
        index = self._index
        if index is None:
            outputs: _VectorsByNode = {}
            inputs: _VectorsByNode = {}
            rounds: set[int] = set()
            for o in self._observations:
                if o.kind == "token":
                    # A re-sent token (failure recovery) overwrites: the
                    # last vector a node passed on in a round is the one
                    # its successor acted on.
                    outputs.setdefault(o.sender, {})[o.round] = o.vector
                    inputs.setdefault(o.receiver, {})[o.round] = o.vector
                    if o.round > 0:
                        rounds.add(o.round)
            index = self._index = _TokenIndex(outputs, inputs, sorted(rounds))
        return index

    # -- adversary views -----------------------------------------------------

    def outputs_of(self, node: str) -> dict[int, tuple[float, ...]]:
        """Map round -> token vector that ``node`` passed to its successor.

        This is the quantity `g_i(r)` / `G_i(r)` the privacy analysis of
        Section 4.3 reasons about.  Result-broadcast traffic is excluded.
        """
        return dict(self._token_index().outputs.get(node, ()))

    def inputs_of(self, node: str) -> dict[int, tuple[float, ...]]:
        """Map round -> token vector that ``node`` received from its predecessor."""
        return dict(self._token_index().inputs.get(node, ()))

    def rounds(self) -> list[int]:
        """Protocol rounds with token traffic (result broadcast excluded)."""
        return list(self._token_index().rounds)
