"""Access policy for federated queries: who may ask what, and how often.

The protocols bound what a *participant* learns; a deployment must also
bound what an *issuer* may ask.  Repeated ranking queries accumulate
exposure (see :mod:`repro.privacy.accounting`), and some aggregates may be
more sensitive than others, so the federation can attach a policy that
gates execution by issuer and operation, with per-issuer query quotas.

Deny-by-default is deliberate: a consortium enumerates what analysts may
run, not what they may not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .sql import ADDITIVE_AGGREGATES, RANKING_AGGREGATES, FederatedStatement

#: Operation groups usable in rules, besides concrete operations.
RANKING = "RANKING"
ADDITIVE = "ADDITIVE"
ANY = "ANY"
_GROUPS = {
    RANKING: set(RANKING_AGGREGATES),
    ADDITIVE: set(ADDITIVE_AGGREGATES),
    ANY: set(RANKING_AGGREGATES) | set(ADDITIVE_AGGREGATES),
}


class PolicyError(ValueError):
    """Raised for malformed policy rules."""


class PolicyViolation(RuntimeError):
    """Raised when an issuer's query is not permitted."""


@dataclass(frozen=True)
class Rule:
    """Permit ``issuer`` to run ``operation`` (an op name or group)."""

    issuer: str  # concrete issuer, or "*" for everyone
    operation: str  # e.g. "MAX", "TOP", or RANKING/ADDITIVE/ANY

    def __post_init__(self) -> None:
        if not self.issuer:
            raise PolicyError("rule issuer must be non-empty")
        known = _GROUPS[ANY] | set(_GROUPS)
        if self.operation not in known:
            raise PolicyError(
                f"unknown operation {self.operation!r}; expected one of "
                f"{sorted(known)}"
            )

    def permits(self, issuer: str, operation: str) -> bool:
        if self.issuer not in ("*", issuer):
            return False
        if self.operation in _GROUPS:
            return operation in _GROUPS[self.operation]
        return operation == self.operation


@dataclass
class AccessPolicy:
    """Deny-by-default rule set with per-issuer quotas."""

    rules: list[Rule] = field(default_factory=list)
    #: Max queries per issuer for the session; None = unlimited.
    quota_per_issuer: int | None = None
    _usage: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        if self.quota_per_issuer is not None and self.quota_per_issuer < 1:
            raise PolicyError("quota_per_issuer must be >= 1")

    # -- authoring -----------------------------------------------------------

    def allow(self, issuer: str, operation: str) -> "AccessPolicy":
        """Append a rule; chainable."""
        self.rules.append(Rule(issuer=issuer, operation=operation))
        return self

    # -- enforcement ------------------------------------------------------------

    def check(self, issuer: str, statement: FederatedStatement) -> None:
        """Raise :class:`PolicyViolation` unless the query is permitted.

        A permitted query consumes one unit of the issuer's quota.
        """
        if not any(r.permits(issuer, statement.operation) for r in self.rules):
            raise PolicyViolation(
                f"issuer {issuer!r} is not permitted to run "
                f"{statement.operation} queries"
            )
        if (
            self.quota_per_issuer is not None
            and self._usage[issuer] >= self.quota_per_issuer
        ):
            raise PolicyViolation(
                f"issuer {issuer!r} exhausted its quota of "
                f"{self.quota_per_issuer} queries"
            )
        self._usage[issuer] += 1

    def usage(self, issuer: str) -> int:
        return self._usage[issuer]
