"""Audit trail for federated query sessions.

Organizations running privacy-sensitive protocols need governance evidence:
who asked what, when (in protocol time), with which parameters, and what it
cost.  The audit log records one entry per served query — *metadata only*,
never data values beyond the public result.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, overload

if TYPE_CHECKING:
    from .outcomes import QueryOutcome

_entry_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One served federated query."""

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


class AuditLog(Sequence[AuditEntry]):
    """Append-only log of federated queries, stored by column.

    Each entry is an ``entry_id`` and the index of a *row* holding its other
    nine fields, in :class:`AuditEntry` order.  An executed query appends a
    row of its own.  A cache hit re-publishes a shared answer, so every
    repeat by one issuer under one membership points at one interned row and
    costs the log two array slots.  Reading builds the :class:`AuditEntry`;
    the log is a read-only sequence (``len``, iteration, an index, a slice),
    and :meth:`record` is its one writer, called from one thread at a time.
    """

    __slots__ = ("_ids", "_row_of", "_rows", "_hit_rows")

    def __init__(self) -> None:
        self._ids = array("q")
        self._row_of = array("q")
        self._rows: list[tuple] = []
        # Text fields match by value (equal strings are identical); every
        # other field by the identity of an object the interned row keeps
        # alive, so equal-but-distinct numbers (-0.0 / 0.0, 1 / 1.0, two
        # NaNs) never share a row and no id in a key can be reused.
        self._hit_rows: dict[tuple, int] = {}

    def record(
        self,
        issuer: str,
        participants: tuple[str, ...],
        outcome: QueryOutcome,
        average_lop: float | None = None,
    ) -> None:
        """Append the entry for ``outcome``, served to ``issuer``."""
        self._ids.append(next(_entry_ids))
        if outcome.cached:
            key = (
                issuer,
                participants,
                outcome.statement,
                outcome.protocol,
                id(outcome.rounds),
                id(outcome.messages),
                id(outcome.values),
                id(average_lop),
            )
            row = self._hit_rows.get(key)
            if row is not None:
                self._row_of.append(row)
                return
            self._hit_rows[key] = len(self._rows)
        self._row_of.append(len(self._rows))
        self._rows.append(
            (
                issuer,
                outcome.statement,
                outcome.protocol,
                participants,
                outcome.rounds,
                outcome.messages,
                outcome.values,
                average_lop,
                outcome.cached,
            )
        )

    def _entry(self, entry_id: int, row: int) -> AuditEntry:
        return AuditEntry(entry_id, *self._rows[row])

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[AuditEntry]:
        return map(self._entry, self._ids, self._row_of)

    @overload
    def __getitem__(self, index: int) -> AuditEntry: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[AuditEntry, ...]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._entry, self._ids[index], self._row_of[index]))
        return self._entry(self._ids[index], self._row_of[index])
