"""Session-level privacy accounting across repeated queries.

A single protocol run leaks little; a *session* of many queries against the
same parties accumulates exposure — every run gives adversaries a fresh set
of intermediate results about the same private tables.  (The paper evaluates
single queries; accumulation is the natural operational concern once the
protocol is deployed, and the reason the federation layer re-randomizes
every run.)

The ledger keeps two books per party.  Its LoP meter admits: a flat
federation draws a ranking statement's expected LoP (its plan's, as a
tenant is drawn) from every member's meter before the ring runs, by the
rule every budget shares (:class:`~repro.privacy.dp.SpendMeter`), and the
release path (:meth:`~repro.federation.dp_release.DpReleasePath.assemble`)
charges the meter that same amount once the run is done -- so the budget
caps each party's cumulative *expected* LoP, and a batch is admitted as its
statements would be one at a time.  Its exposure record keeps what each run
*measured* (the peak LoP per party), after the run
(:meth:`ExposureLedger.charge`); it refuses nothing, and can end past the
budget, since the ring successors have seen the run.

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


@dataclass
class ExposureLedger:
    """Per-party LoP admission meters and measured exposure for one
    federation session."""

    #: Optional ceiling on any single party's accumulated expected LoP.
    budget: float | None = None
    #: One LoP meter per party drawn from so far: the expected LoP of every
    #: run it was admitted for.
    meters: dict[str, SpendMeter] = field(default_factory=dict)
    #: Each party's cumulative measured peak exposure.
    exposures: dict[str, float] = field(default_factory=dict)
    runs_charged: int = 0

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def meter(self, party: str) -> SpendMeter:
        """``party``'s LoP meter, made on its first draw."""
        if party not in self.meters:
            self.meters[party] = SpendMeter(self.budget, holder=f"party {party!r}")
        return self.meters[party]

    def charge(self, result: ProtocolResult) -> dict[str, float]:
        """Record one finished run; returns its per-party measured exposure.

        Each party's measured peak exposure joins its record.  Never
        refuses and moves no meter: admission happened before the ring ran,
        and the release path charges the meters what they admitted.
        """
        increments = dict(exposure_profile(result).peak)
        for node, increment in increments.items():
            self.exposures[node] = self.exposures.get(node, 0.0) + increment
        self.runs_charged += 1
        return increments

    def exposure(self, party: str) -> float:
        return self.exposures.get(party, 0.0)
