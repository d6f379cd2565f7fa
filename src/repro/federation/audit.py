"""Audit trail for federated query sessions.

Organizations running privacy-sensitive protocols need governance evidence:
who asked what, when (in protocol time), with which parameters, and what it
cost.  The audit log records one entry per executed query — *metadata only*,
never data values beyond the public result.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field

_entry_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One executed federated query."""

    entry_id: int
    issuer: str
    statement: str
    protocol: str
    participants: tuple[str, ...]
    rounds: int
    messages: int
    result_public: tuple[float, ...]
    average_lop: float | None = None
    #: True when the answer was re-served from the result cache: no protocol
    #: ran, no messages flowed, and no new exposure was charged.  Recorded so
    #: a compliance review can distinguish re-publication from re-execution.
    cached: bool = False

    @classmethod
    def for_query(
        cls,
        issuer: str,
        statement: str,
        protocol: str,
        participants: tuple[str, ...],
        rounds: int,
        messages: int,
        result_public: tuple[float, ...],
        average_lop: float | None = None,
        cached: bool = False,
    ) -> "AuditEntry":
        return cls(
            entry_id=next(_entry_ids),
            issuer=issuer,
            statement=statement,
            protocol=protocol,
            participants=participants,
            rounds=rounds,
            messages=messages,
            result_public=result_public,
            average_lop=average_lop,
            cached=cached,
        )


@dataclass
class AuditLog:
    """Append-only log of federated queries."""

    entries: list[AuditEntry] = field(default_factory=list)

    def record(self, entry: AuditEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(self.entries)
