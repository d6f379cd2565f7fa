"""Query-result cache for the federation's batch execution path.

Serving a repeated statement from cache is a *privacy* win before it is a
performance win: a protocol run exposes fresh intermediate results to every
semi-honest observer and charges each party's exposure ledger, while a cache
hit re-publishes an already-public answer — zero new protocol rounds, zero
new messages, zero new exposure.  (The federation already re-randomizes
repeated *executions* so observers cannot difference out the noise; not
re-executing at all is strictly stronger.)

Keying and invalidation: entries are keyed by the *canonical* statement (the
parsed operation/k/attribute/table, so formatting and keyword case do not
fragment the cache) together with the federation's membership epoch and the
participants' data versions.  Any membership change bumps the epoch — and
clears the cache outright — and any data mutation changes a party's
:attr:`~repro.database.database.PrivateDatabase.data_version`, so stale
answers are unreachable by construction rather than by TTL guesswork.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .sql import FederatedStatement

if TYPE_CHECKING:
    from .outcomes import QueryOutcome


def canonical_statement(statement: FederatedStatement) -> tuple:
    """The cache-relevant identity of a parsed statement.

    Two statement texts that parse to the same operation, k, attribute and
    table are the same query ("select top 2 v from t" == "SELECT TOP 2 v
    FROM t;").  Identifiers stay case-sensitive, matching table lookup.
    """
    return (statement.operation, statement.k, statement.attribute, statement.table)


@dataclass(frozen=True)
class CacheKey:
    """Full cache key: canonical statement + membership epoch + data versions."""

    statement: tuple
    membership_epoch: int
    #: Sorted ``(owner, data_version)`` pairs of all registered parties.
    data_versions: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CachedAnswer:
    """The public outcome a cache hit re-serves."""

    values: tuple[float, ...]
    protocol: str
    #: The hit outcome of each spelling (bare statement text) served from this
    #: entry: built on that spelling's first hit, the same frozen object on
    #: every later one.  Held here so it is dropped with the answer it
    #: re-publishes — FIFO eviction, ``clear()``, or a key that the membership
    #: epoch or a data version has moved away from.
    served: dict[str, QueryOutcome] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass
class ResultCache:
    """Bounded map from :class:`CacheKey` to :class:`CachedAnswer`.

    ``max_entries`` bounds memory with FIFO eviction (insertion order —
    dict order — approximates LRU well enough for a per-session cache).
    Hit/miss counters feed the throughput benchmarks' cache-hit-rate metric.
    """

    max_entries: int = 1024
    hits: int = 0
    misses: int = 0
    _entries: dict[CacheKey, CachedAnswer] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: CacheKey) -> CachedAnswer | None:
        """Lookup without touching the hit/miss counters (planning passes)."""
        return self._entries.get(key)

    def lookup(self, key: CacheKey) -> CachedAnswer | None:
        """Counted lookup: one hit or one miss per served statement."""
        answer = self._entries.get(key)
        if answer is None:
            self.misses += 1
        else:
            self.hits += 1
        return answer

    def store(self, key: CacheKey, answer: CachedAnswer) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = answer

    def clear(self) -> None:
        """Drop every entry (explicit invalidation); counters survive."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of served statements answered from cache."""
        served = self.hits + self.misses
        return self.hits / served if served else 0.0
