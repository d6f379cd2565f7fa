"""Typed failures of the sharding layer.

Shard failures must be *typed* for the same reason service failures are
(:mod:`repro.service.errors`): a multi-tenant gateway has to distinguish
"this shard's process is gone, the statement is refusable right now"
(:class:`ShardUnavailable`) from "this tenant is over its rate"
(:class:`TenantRateLimited`) from a plain misconfiguration
(:class:`ShardError`).  A tenant whose budget ran out gets the one budget
refusal, :class:`~repro.privacy.dp.BudgetExhausted`.  Every one of them
settles as a :class:`~repro.federation.coordinator.QueryRefused` on the
batch path, so a dead shard degrades the statements routed to it and
nothing else.
"""

from __future__ import annotations


class ShardError(RuntimeError):
    """Base class for sharding-layer failures (routing, wire, membership)."""


class ShardUnavailable(ShardError):
    """A shard's backing process/socket is unreachable.

    Raised (and settled per statement) when a process shard's worker died,
    timed out, or closed the connection mid-request.  The failure is local
    to the shard: statements routed to live shards keep being served.
    """

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard


class TenantRateLimited(ShardError):
    """The tenant's cross-shard token bucket is empty; retry later."""


__all__ = [
    "ShardError",
    "ShardUnavailable",
    "TenantRateLimited",
]
