"""Failure injection for the simulated network.

Section 3.2: "In case there is a node failure on the ring, the ring can be
reconstructed from scratch or simply by connecting the predecessor and
successor of the failed node."  The injector models crash-stop node failures
and lossy links; the ring module implements the repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .message import Message


@dataclass
class FailureInjector:
    """Deterministic, scriptable failures.

    Parameters
    ----------
    drop_probability:
        Probability an individual message is silently lost in transit.
        Must be in ``[0, 1)``: a certain drop (1.0) would make every
        protocol stall unconditionally, which is a configuration error,
        not a failure model.
    rng:
        Randomness source for probabilistic drops.
    """

    drop_probability: float = 0.0
    rng: random.Random = field(default_factory=random.Random)
    _crashed: set[str] = field(default_factory=set)
    _scheduled: list[tuple[int, str]] = field(default_factory=list)
    _messages_seen: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")

    # -- node crashes ---------------------------------------------------------

    def crash(self, node: str) -> None:
        """Crash-stop ``node``; it neither sends nor receives afterwards."""
        self._crashed.add(node)

    def schedule_crash(self, node: str, after_messages: int) -> None:
        """Crash ``node`` once ``after_messages`` messages have transited.

        Deterministic mid-run failures for tests and experiments: the crash
        fires the first time the transport consults the injector at or past
        the given message count.
        """
        if after_messages < 0:
            raise ValueError("after_messages must be non-negative")
        self._scheduled.append((after_messages, node))

    def recover(self, node: str) -> None:
        self._crashed.discard(node)

    def is_crashed(self, node: str) -> bool:
        return node in self._crashed

    # -- transport hook ---------------------------------------------------------

    def should_drop(self, message: Message) -> bool:
        """True when the transport must not deliver ``message``."""
        self._messages_seen += 1
        if self._scheduled:
            due = [n for at, n in self._scheduled if self._messages_seen >= at]
            if due:
                self._crashed.update(due)
                self._scheduled = [
                    (at, n) for at, n in self._scheduled if n not in self._crashed
                ]
        if message.sender in self._crashed or message.receiver in self._crashed:
            return True
        if self.drop_probability and self.rng.random() < self.drop_probability:
            return True
        return False
