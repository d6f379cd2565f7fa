"""Admission queue and continuous-batch formation.

The scheduling problem: a stream of independently-submitted statements must
be coalesced into
:meth:`~repro.federation.coordinator.Federation.execute_many_settled`
batches that amortize secure-computation cost, while per-request priorities
and deadlines are honored and the queue never grows without bound.  This
module is deliberately free of asyncio: it is the pure data-structure half of
the service (bounded queue, expiry sweep, batch selection), driven by the
:mod:`gateway <repro.service.gateway>`'s event loop and therefore unit-testable
without one.

Batch compatibility: ``execute_many_settled`` runs a whole batch under one
issuer (the issuer rule, tenant budgets and audit attribution are
per-issuer), so a batch coalesces only same-issuer requests — the
"compatible shape" rule.
Selection order is (priority descending, admission sequence ascending): the
head request defines the issuer, then the batch fills with that issuer's
queued requests in the same order, up to the batch capacity.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..observability.trace import TraceContext
from .errors import Overloaded

if TYPE_CHECKING:  # the queue itself never needs the planner at run time
    from ..planner.plan import Plan


@dataclass
class QueuedRequest:
    """One admitted query waiting for a batch slot."""

    statement: str
    issuer: str
    priority: int
    #: Absolute expiry on the service clock; ``None`` waits forever.
    deadline: float | None
    admitted_at: float
    seq: int
    future: "asyncio.Future"
    #: Tracing state, all ``None`` when the service runs untraced: ``trace``
    #: is the request's query-span context (batch spans open under it),
    #: ``queue_span``/``batch_span`` are the currently-open child spans.
    trace: "TraceContext | None" = None
    queue_span: "TraceContext | None" = None
    batch_span: "TraceContext | None" = None
    #: The statement's plan as its backend's plan stage made it at
    #: admission; ``None`` when no cost budget applies and the statement
    #: carries no SLO.  Only its ``mode`` travels with the batch.
    plan: "Plan | None" = None

    @property
    def sort_key(self) -> tuple[int, int]:
        """Higher priority first; FIFO within a priority level."""
        return (-self.priority, self.seq)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class AdmissionQueue:
    """A bounded priority queue of :class:`QueuedRequest`.

    Bounded is the point: when ``max_depth`` requests are already waiting,
    :meth:`push` raises :class:`~repro.service.errors.Overloaded` instead of
    queuing — callers shed load at admission time, which keeps worst-case
    queueing latency proportional to ``max_depth``.
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._items: list[QueuedRequest] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    def push(self, request: QueuedRequest) -> None:
        if len(self._items) >= self.max_depth:
            raise Overloaded(
                f"admission queue full ({self.max_depth} waiting); retry later",
                queue_depth=len(self._items),
                limit=self.max_depth,
            )
        self._items.append(request)

    def expire(self, now: float) -> list[QueuedRequest]:
        """Remove and return every request whose deadline has passed."""
        expired = [r for r in self._items if r.expired(now)]
        if expired:
            self._items = [r for r in self._items if not r.expired(now)]
        return expired

    def snapshot(self) -> list[QueuedRequest]:
        """The queued requests, in admission order (a copy)."""
        return list(self._items)

    def remove(self, request: QueuedRequest) -> bool:
        """Remove one specific request; False if it was already gone.

        Used for the dequeue-time cache fast path: a queued statement that an
        earlier batch answered is served immediately, freeing its would-be
        batch slot.
        """
        for index, item in enumerate(self._items):
            if item.seq == request.seq:
                del self._items[index]
                return True
        return False

    def drain_all(self) -> list[QueuedRequest]:
        """Remove and return everything (non-graceful shutdown)."""
        items, self._items = self._items, []
        return items

    def next_batch(self, max_batch: int) -> list[QueuedRequest]:
        """Select and remove the next batch of compatible requests.

        The highest-priority / oldest request defines the batch's issuer;
        the batch then fills with that issuer's requests in (priority,
        admission) order up to ``max_batch``.  Other issuers' requests stay
        queued for the next cycle, so no issuer is starved: each cycle
        serves the currently most-deserving head.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not self._items:
            return []
        ordered = sorted(self._items, key=lambda r: r.sort_key)
        issuer = ordered[0].issuer
        batch = [r for r in ordered if r.issuer == issuer][:max_batch]
        chosen = {r.seq for r in batch}
        self._items = [r for r in self._items if r.seq not in chosen]
        return batch


@dataclass
class TokenBucket:
    """Per-client rate limiter: ``rate`` requests/second, ``burst`` capacity.

    Refill is computed from the service clock, so under a simulated clock the
    limiter is exactly as deterministic as everything else in the service.
    """

    rate: float
    burst: float
    tokens: float = field(default=-1.0)
    updated: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        if self.tokens < 0:
            self.tokens = self.burst  # start full

    def try_take(self, now: float) -> bool:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


__all__ = ["AdmissionQueue", "QueuedRequest", "TokenBucket"]
