"""Statement routing and per-tenant admission for sharded federations.

Routing is by *table*: the key space (table names) is hashed onto shards
with a stable SHA-256 placement, so every process — gateway, worker,
topology builder — independently agrees where a table lives without any
coordination service.  Tables registered as *partitioned* hold disjoint row
sets on every shard; statements over them fan out to all shards and merge
(:mod:`repro.sharding.federation`).

The router also owns the cross-shard tenant controls the ROADMAP's
scale-out item asks for: a per-tenant token bucket (requests/second across
*all* shards, not per shard) and a per-tenant LoP budget.  A ranking
statement is charged the expected LoP of the plan it runs, and one whose
charge its meter cannot absorb — on top of what its batch already admitted —
is refused up front as :class:`~repro.privacy.dp.BudgetExhausted`
(``dimension == "lop"``), before any shard spends a protocol round on it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..privacy.dp import PrivacyAccountant, SpendMeter
from ..service.scheduler import TokenBucket
from .errors import ShardError, TenantRateLimited


def shard_index(table: str, shard_count: int) -> int:
    """Stable placement of ``table`` on one of ``shard_count`` shards.

    SHA-256 over the table name, like every other derived identity in this
    codebase (federation seeds, trial seeds): collision-free in practice,
    identical across processes and Python versions — ``hash()`` is salted
    per interpreter and would scatter tables differently in every worker.
    """
    if shard_count < 1:
        raise ShardError(f"shard_count must be >= 1, got {shard_count}")
    digest = hashlib.sha256(table.encode()).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


@dataclass(frozen=True)
class TenantPolicy:
    """Cross-shard allowances for one tenant (issuer).

    ``lop_budget`` caps the tenant's cumulative *expected* LoP across every
    ranking statement it executes (cache hits are free — nothing runs, no
    new exposure).  ``dp_epsilon_budget``/``dp_delta_budget`` cap the
    tenant's composed differential-privacy spend across its DP releases
    under the same rule — a cached re-serve of an existing release spends
    nothing; both budgets meter through the shared
    :class:`~repro.privacy.dp.SpendMeter` surface.  ``rate``/``burst``
    configure the tenant's token bucket; ``rate=None`` disables rate
    limiting for the tenant.
    """

    lop_budget: float | None = None
    rate: float | None = None
    burst: int = 8
    dp_epsilon_budget: float | None = None
    dp_delta_budget: float | None = None

    def __post_init__(self) -> None:
        if self.lop_budget is not None and self.lop_budget < 0:
            raise ShardError(f"lop_budget must be >= 0, got {self.lop_budget}")
        if self.rate is not None and self.rate <= 0:
            raise ShardError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ShardError(f"burst must be >= 1, got {self.burst}")
        if self.dp_epsilon_budget is not None and self.dp_epsilon_budget < 0:
            raise ShardError(
                f"dp_epsilon_budget must be >= 0, got {self.dp_epsilon_budget}"
            )
        if self.dp_delta_budget is not None and not 0.0 <= self.dp_delta_budget < 1.0:
            raise ShardError(
                f"dp_delta_budget must be in [0, 1), got {self.dp_delta_budget}"
            )


@dataclass
class TenantAccount:
    """Mutable per-tenant state: LoP meter, DP accountant, token bucket.

    LoP and DP spend through the same accounting surface
    (:class:`~repro.privacy.dp.SpendMeter`), which is what pins the shared
    "spent on a cache hit is free" rule: the release path
    (:meth:`~repro.federation.dp_release.DpReleasePath.assemble`) charges
    *both* only for statements that ran.  Budgeted and unbudgeted accounts
    both record, so the snapshot shows every tenant's cumulative spend and a
    budget installed later by :meth:`ShardRouter.set_tenant` binds against
    the history already accrued.
    """

    policy: TenantPolicy
    lop: SpendMeter = field(default_factory=SpendMeter)
    bucket: TokenBucket | None = None
    queries: int = 0
    refusals: int = 0
    dp: PrivacyAccountant = field(default_factory=PrivacyAccountant)
    #: The tenant, as its meters' refusals name it.
    issuer: str = ""

    def __post_init__(self) -> None:
        self.bind_policy(self.policy)
        for meter in (self.lop, self.dp.epsilon, self.dp.delta):
            meter.holder = f"tenant {self.issuer!r}"

    def bind_policy(self, policy: TenantPolicy) -> None:
        """Point the meters at ``policy``'s budgets, keeping spent history."""
        self.policy = policy
        self.lop.budget = policy.lop_budget
        self.dp.epsilon.budget = policy.dp_epsilon_budget
        self.dp.delta.budget = policy.dp_delta_budget

    @property
    def lop_spent(self) -> float:
        return self.lop.spent


#: Sentinel routing target: the statement fans out to every shard.
ALL_SHARDS = -1


class ShardRouter:
    """Table-to-shard placement plus per-tenant admission state.

    The router is deliberately free of execution concerns — it answers
    "which shard(s)?" and "may this tenant proceed right now?" and counts
    what it decided; :class:`~repro.sharding.federation.ShardedFederation`
    drives it.
    """

    def __init__(
        self,
        shard_count: int,
        *,
        partitioned: "tuple[str, ...] | list[str]" = (),
    ) -> None:
        if shard_count < 1:
            raise ShardError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count
        self._partitioned = frozenset(partitioned)
        self._tenants: dict[str, TenantAccount] = {}

    # -- placement ----------------------------------------------------------

    @property
    def partitioned_tables(self) -> tuple[str, ...]:
        return tuple(sorted(self._partitioned))

    def route(self, table: str) -> int:
        """The shard serving ``table``: an index, or :data:`ALL_SHARDS`."""
        if table in self._partitioned:
            return ALL_SHARDS
        return shard_index(table, self.shard_count)

    # -- tenants ------------------------------------------------------------

    def set_tenant(self, issuer: str, policy: TenantPolicy) -> None:
        """Install (or replace) one tenant's allowances.

        Replacing a policy keeps the tenant's spent-LoP history: budgets are
        session-cumulative, exactly like the federation's
        :class:`~repro.privacy.accounting.ExposureLedger`.
        """
        account = self._tenants.get(issuer)
        if account is None:
            self._tenants[issuer] = TenantAccount(policy=policy, issuer=issuer)
        else:
            account.bind_policy(policy)
            account.bucket = None  # rebuilt lazily against the new rate

    def tenant(self, issuer: str) -> TenantAccount | None:
        return self._tenants.get(issuer)

    def take_token(self, issuer: str, now: float) -> None:
        """Charge one request against the tenant's token bucket.

        Tenants without a policy (or without a rate) are unrestricted — the
        gateway's own per-issuer bucket still applies above this layer.
        Raises :class:`TenantRateLimited` when the bucket is empty.
        """
        account = self._tenants.get(issuer)
        if account is None:
            return
        account.queries += 1
        policy = account.policy
        if policy.rate is None:
            return
        if account.bucket is None:
            account.bucket = TokenBucket(
                rate=policy.rate, burst=float(policy.burst), updated=now
            )
        if not account.bucket.try_take(now):
            account.refusals += 1
            raise TenantRateLimited(
                f"tenant {issuer!r} exceeded {policy.rate}/s "
                f"(burst {policy.burst}) across shards"
            )

    # -- differential privacy -----------------------------------------------

    def dp_accountant(self, issuer: str) -> PrivacyAccountant | None:
        """The tenant's (epsilon, delta) accountant; ``None`` for an issuer
        with no account, whose releases spend into the void."""
        account = self._tenants.get(issuer)
        return account.dp if account is not None else None

    def note_refusal(self, issuer: str) -> None:
        account = self._tenants.get(issuer)
        if account is not None:
            account.refusals += 1

    def tenant_snapshot(self) -> dict[str, dict[str, float | int | None]]:
        """Per-tenant accounting for metrics/exports (deterministic order)."""
        return {
            issuer: {
                "queries": account.queries,
                "refusals": account.refusals,
                "lop_spent": round(account.lop_spent, 9),
                "lop_budget": account.policy.lop_budget,
                "dp_epsilon_spent": round(account.dp.epsilon.spent, 9),
                "dp_epsilon_budget": account.policy.dp_epsilon_budget,
                "dp_delta_spent": round(account.dp.delta.spent, 12),
                "dp_delta_budget": account.policy.dp_delta_budget,
            }
            for issuer, account in sorted(self._tenants.items())
        }


__all__ = [
    "ALL_SHARDS",
    "ShardRouter",
    "TenantAccount",
    "TenantPolicy",
    "shard_index",
]
