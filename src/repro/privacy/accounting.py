"""Session-level privacy accounting across repeated queries.

A single protocol run leaks little; a *session* of many queries against the
same parties accumulates exposure — every run gives adversaries a fresh set
of intermediate results about the same private tables.  (The paper evaluates
single queries; accumulation is the natural operational concern once the
protocol is deployed, and the reason the federation layer re-randomizes
every run.)

The accountant charges each party its measured peak LoP per run and tracks
the cumulative total against an optional budget, in the spirit of a privacy
budget: once a party's accumulated exposure crosses the budget, further
queries are refused.

Cumulative charging is conservative-additive: independent runs randomize
independently, so summing per-run exposures upper-bounds what any single
observed run revealed while still growing with every opportunity the
adversary got.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.results import ProtocolResult
from .dp import SpendMeter
from .lop import exposure_profile


class BudgetExceededError(RuntimeError):
    """Raised when a query would push a party past its privacy budget."""


@dataclass
class ExposureLedger:
    """Per-party cumulative exposure for one federation session."""

    #: Optional ceiling on any single party's accumulated exposure.
    budget: float | None = None
    charges: dict[str, float] = field(default_factory=dict)
    runs_charged: int = 0

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def charge(self, result: ProtocolResult) -> dict[str, float]:
        """Charge one finished run; returns the per-party charges applied.

        Raises :class:`BudgetExceededError` — *before* recording anything —
        if the charge would push any party past the budget, so a refused
        query leaves the ledger unchanged.  Landing exactly on the budget is
        admitted by the one rule every budget shares
        (:meth:`SpendMeter.would_exceed`).
        """
        increments = dict(exposure_profile(result).peak)
        if self.budget is not None:
            over = [
                node
                for node, inc in increments.items()
                if SpendMeter(self.budget, self.exposure(node)).would_exceed(inc)
            ]
            if over:
                raise BudgetExceededError(
                    f"query refused: parties {sorted(over)} would exceed the "
                    f"privacy budget of {self.budget}"
                )
        for node, increment in increments.items():
            self.charges[node] = self.charges.get(node, 0.0) + increment
        self.runs_charged += 1
        return increments

    def exposure(self, party: str) -> float:
        return self.charges.get(party, 0.0)
