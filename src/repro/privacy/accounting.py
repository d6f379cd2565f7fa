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
from .dp import BudgetExhausted, SpendMeter
from .lop import exposure_profile


@dataclass
class ExposureLedger:
    """Per-party cumulative exposure for one federation session."""

    #: Optional ceiling on any single party's accumulated exposure.
    budget: float | None = None
    #: One LoP meter per party charged so far.
    meters: dict[str, SpendMeter] = field(default_factory=dict)
    runs_charged: int = 0

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def charge(self, result: ProtocolResult) -> dict[str, float]:
        """Charge one finished run; returns the per-party charges applied.

        Raises :class:`~repro.privacy.dp.BudgetExhausted` (``dimension``
        ``"lop"``) — *before* recording anything — if the charge would push
        any party past the budget, so a refused query leaves the ledger
        unchanged.  Landing exactly on the budget is admitted by the one
        rule every budget shares (:class:`SpendMeter`).
        """
        increments = dict(exposure_profile(result).peak)
        meters = {
            node: self.meters.get(node) or SpendMeter(self.budget)
            for node in increments
        }
        over = sorted(
            node for node, inc in increments.items() if meters[node].refusal(inc)
        )
        if over:
            raise BudgetExhausted(
                f"query refused: parties {over} would exceed the "
                f"privacy budget of {self.budget}"
            )
        for node, increment in increments.items():
            meters[node].charge(increment)
        self.meters.update(meters)
        self.runs_charged += 1
        return increments

    def exposure(self, party: str) -> float:
        meter = self.meters.get(party)
        return meter.spent if meter is not None else 0.0
