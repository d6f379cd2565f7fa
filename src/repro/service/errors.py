"""Typed failures of the query-serving layer.

Load shedding is only usable by clients when it is *typed*: a caller must be
able to distinguish "the service is saturated, back off and retry"
(:class:`Overloaded`, :class:`RateLimited`) from "your request waited too
long" (:class:`DeadlineExceeded`) from "the batch executing your query died"
(:class:`QueryFailed`).  Everything the gateway raises on its own behalf
derives from :class:`ServiceError`; per-query *federation* refusals (the issuer
rule's ``DpRequired``, privacy-budget refusals, parse errors) propagate as their
original typed exceptions so existing handlers keep working.
"""

from __future__ import annotations


class ServiceError(RuntimeError):
    """Base class for query-service failures."""


class Overloaded(ServiceError):
    """Admission refused: the queue is full.

    The service never queues unboundedly — when the admission queue is at
    capacity, new requests are rejected immediately with this error so
    callers get backpressure instead of unbounded latency.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class RateLimited(Overloaded):
    """Admission refused: this client exceeded its request-rate allowance."""


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before the service could dispatch it."""


class ServiceClosed(ServiceError):
    """The service is shut down (or draining) and admits no new queries."""


class QueryFailed(ServiceError):
    """The batch executing this query failed as a whole.

    Carries the underlying error (e.g. an unrecoverable ring failure) as
    ``cause`` and as ``__cause__``.
    """

    def __init__(self, message: str, *, cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.cause = cause
        self.__cause__ = cause


__all__ = [
    "DeadlineExceeded",
    "Overloaded",
    "QueryFailed",
    "RateLimited",
    "ServiceClosed",
    "ServiceError",
]
