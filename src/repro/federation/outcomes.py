"""What a federated query settles as: an outcome, a refusal, or an error.

A leaf module below the coordinator, the DP release path and the sharded
federation, which all produce these.  The public import path stays
``repro.federation.coordinator`` (and ``repro.federation``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.results import ProtocolResult


class FederationError(RuntimeError):
    """Raised for invalid federation state or unanswerable queries."""


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """Public outcome of one federated query."""

    statement: str
    values: tuple[float, ...]
    protocol: str
    rounds: int
    messages: int
    #: Full protocol trace for ranking queries (None for additive ones and
    #: for cache hits — a hit re-serves the public answer, not the trace).
    trace: ProtocolResult | None = None
    #: True when the answer was served from the result cache: no protocol
    #: ran and no new exposure was charged.
    cached: bool = False
    #: Simulated network time this query's protocol occupied (0.0 for cache
    #: hits and additive aggregates).
    simulated_seconds: float = 0.0


@dataclass(frozen=True)
class QueryRefused:
    """One statement's refusal on the settled batch path.

    :meth:`Federation.execute_many_settled` returns this in place of a
    :class:`QueryOutcome` when a statement is individually unservable — a
    parse error, a policy violation, or a privacy-budget refusal — so a
    multi-tenant batch (the query service's continuous batches) degrades
    per-statement instead of aborting whole batches.  ``error`` carries the
    original typed exception.
    """

    statement: str
    error: Exception


__all__ = ["FederationError", "QueryOutcome", "QueryRefused"]
