"""Traffic accounting for the efficiency experiments.

Section 4.2 analyses communication cost as (cost per round) x (number of
rounds), with cost per round proportional to the number of nodes.  The
simulator measures this directly: every delivered message is counted here,
per link and per round, in both messages and payload bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .message import Message


@dataclass
class TrafficStats:
    """Mutable accumulator of message/byte counts."""

    messages_total: int = 0
    bytes_total: int = 0
    per_link: Counter = field(default_factory=Counter)
    per_round: Counter = field(default_factory=Counter)
    per_type: Counter = field(default_factory=Counter)
    #: Messages per query tag ("" for untagged single-query traffic) — the
    #: per-query accounting of the multi-query pipelining path.
    per_query: Counter = field(default_factory=Counter)

    def record(self, message: Message) -> None:
        size = message.size_bytes
        self.messages_total += 1
        self.bytes_total += size
        self.per_link[(message.sender, message.receiver)] += 1
        self.per_round[message.round] += 1
        self.per_type[message.type.value] += 1
        self.per_query[message.query] += 1

    @property
    def rounds_seen(self) -> int:
        """Highest round number with traffic (setup round 0 excluded)."""
        data_rounds = [r for r in self.per_round if r > 0]
        return max(data_rounds, default=0)

    def merge(self, other: "TrafficStats") -> None:
        """Fold another accumulator into this one (for multi-trial totals)."""
        self.messages_total += other.messages_total
        self.bytes_total += other.bytes_total
        self.per_link.update(other.per_link)
        self.per_round.update(other.per_round)
        self.per_type.update(other.per_type)
        self.per_query.update(other.per_query)

    def summary(self) -> dict[str, float]:
        """Flat summary used by reports and benchmarks."""
        return {
            "messages_total": self.messages_total,
            "bytes_total": self.bytes_total,
            "rounds_seen": self.rounds_seen,
            "mean_bytes_per_message": (
                self.bytes_total / self.messages_total if self.messages_total else 0.0
            ),
        }
