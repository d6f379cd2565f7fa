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
    #: Always ``None``: no federation sets it.  An outcome is the public
    #: answer; the run's transcript dies with its batch once the ledger has
    #: charged it and the audit has recorded its LoP.  The field stays
    #: declared only because ``bench/layers.py`` reads ``o.trace``.
    trace: ProtocolResult | None = None
    #: True when the answer was served from the result cache: no protocol
    #: ran and no new exposure was charged.
    cached: bool = False
    #: Simulated network time this query's protocol occupied (0.0 for cache
    #: hits and additive aggregates).
    simulated_seconds: float = 0.0
    #: The executed ring's average LoP (Eq. 1, the Section 5.3 estimator):
    #: the one number of the run the issuer gets beside the answer.  ``None``
    #: for cache hits, additive aggregates, DP releases and fan-out merges.
    average_lop: float | None = None


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
