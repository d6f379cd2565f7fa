"""What a federated query settles as: an outcome, a refusal, or an error.

A leaf module below the coordinator, the DP release path and the sharded
federation, which all produce these.  The public import path stays
``repro.federation.coordinator`` (and ``repro.federation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from operator import attrgetter
from weakref import WeakValueDictionary

from ..core.results import ProtocolResult


class FederationError(RuntimeError):
    """Raised for invalid federation state or unanswerable queries."""


class _WeakReferenceable:
    # ``dataclass(weakref_slot=True)`` needs Python 3.11; a slotted base whose
    # one slot is ``__weakref__`` gives a slotted subclass that slot on 3.10.
    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class QueryOutcome(_WeakReferenceable):
    """Public outcome of one federated query.

    Treat it as an immutable value: repeat hits of one spelling may return
    the very same object (:class:`SharedOutcomes`).
    """

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


#: An outcome's fields in declaration order: ``QueryOutcome(*_fields(o)) == o``.
_fields = attrgetter(*QueryOutcome.__match_args__)


def _same_bits(a: tuple, b: tuple) -> bool:
    """Two outcomes' :func:`_fields` equal with every number of the answer the
    same bits, as the audit log's hit rows are interned: ``-0.0`` and ``0.0``
    differ, so do ``1`` and ``1.0``, and a NaN equals nothing, not even the
    same NaN object.  The numbers are fields 1, 7 and 8: ``values``,
    ``simulated_seconds`` and ``average_lop``."""
    if a != b:
        return False
    for x, y in zip((*a[1], a[7], a[8]), (*b[1], b[7], b[8])):
        # ``a == b`` already paired ``None`` with ``None``.
        if x is not None and (
            type(x) is not type(y) or x != y or copysign(1.0, x) != copysign(1.0, y)
        ):
            return False
    return True


class SharedOutcomes:
    """Per spelling, the last hit outcome handed out, while a caller holds it.

    :meth:`share` returns that outcome in place of a new one whose fields are
    bit for bit the same, so the repeat hits of one statement text are one
    object, as the outcomes a cache entry's ``served`` map keeps are;
    :meth:`decode` does the same for fields not yet made an outcome, and
    makes one only when they are new.  The outcome is held by weak
    reference: once no caller keeps it, its entry goes too, so this holds
    nothing a caller has let go.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: WeakValueDictionary[str, QueryOutcome] = WeakValueDictionary()

    def share(self, spelling: str, outcome: QueryOutcome) -> QueryOutcome:
        return self.decode(spelling, _fields(outcome), outcome)

    def decode(
        self, spelling: str, fields: tuple, outcome: QueryOutcome | None = None
    ) -> QueryOutcome:
        """The outcome of ``fields`` (an outcome's, in declaration order), as
        :meth:`share` hands it out: built only if the held one differs."""
        held = self._last.get(spelling)
        if held is not None and _same_bits(_fields(held), fields):
            return held
        self._last[spelling] = outcome = outcome or QueryOutcome(*fields)
        return outcome


@dataclass(frozen=True)
class QueryRefused:
    """One statement's refusal in a batch.

    :meth:`Federation.execute_many_settled` returns this in place of a
    :class:`QueryOutcome` when a statement is individually unservable — a
    parse error, the issuer rule's ``DpRequired``, a quorum or schema
    refusal (a statement over a missing table or attribute), a
    privacy-budget refusal or an AVG over zero rows — so a
    multi-tenant batch (the query service's continuous batches) degrades
    per-statement instead of aborting whole batches.  ``error`` carries the
    original typed exception.
    """

    statement: str
    error: Exception


__all__ = ["FederationError", "QueryOutcome", "QueryRefused", "SharedOutcomes"]
