"""The plan object: one chosen execution strategy, explainable and exact.

A :class:`Plan` is what the planner returns and what the federation
executes: protocol + parameters + the :class:`CostEstimate` that justified
the choice.  Which executor replays the protocol is not part of it: the
driver decides that from the run's config and batch size.  ``explain()`` renders it deterministically — same
statement, SLO, federation size and calibration always produce the same
bytes — which is what lets CI diff plans as golden artifacts.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..core.params import ProtocolParams
from .cost import PROBABILISTIC, CostEstimate
from .errors import PlanInfeasible
from .spec import QuerySpec, Slo, prepare

#: Planner objectives: quality-first (default) or cost-first (the
#: gateway's downgrade mode under cost pressure).
QUALITY = "quality"
ECONOMY = "economy"
MODES = (QUALITY, ECONOMY)


def _fmt(value: float) -> str:
    """Deterministic numeric rendering: trim trailing zeros, keep precision."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def unplanned(spec: "QuerySpec", mode: str) -> bool:
    """True when ``spec`` runs unchosen, on its federation's base
    configuration: it declares no objective and is served in quality mode."""
    return mode == QUALITY and spec.slo.is_trivial


def plan_or_refusal(
    spec: "QuerySpec", mode: str, plan_for: Callable, forms: set, peek: Callable
) -> "Plan | PlanInfeasible | None":
    """The plan ``spec`` runs on, ``None`` for its base configuration, or
    the :class:`PlanInfeasible` refusing it: the one rule both federations'
    prechecks apply, asking ``plan_for(spec, mode)``.

    Nothing is chosen for an :func:`unplanned` statement.  One whose SLO no
    plan meets is served unplanned only when it is not a DP statement and
    its answer is public by its turn -- cache-valid now (``peek``), or its
    canonical form among ``forms``, those its batch admitted to run so far:
    an already-public answer costs no round, message or exposure, which
    meets any objective.
    """
    if unplanned(spec, mode):
        return None
    try:
        return plan_for(spec, mode)
    except PlanInfeasible as exc:
        if spec.slo.has_dp:
            return exc
        public = prepare(spec.text).canonical in forms or peek(spec.text) is not None
        return None if public else exc


def expected_lop(spec: "QuerySpec", plan: "Plan | None", plan_for: Callable) -> float:
    """What a ranking statement is drawn from every LoP budget before it
    runs -- a tenant's or each party's alike: its plan's expected LoP, or
    for one run unplanned, its base configuration's."""
    return (plan or plan_for(prepare(spec.statement.text).spec)).estimate.expected_lop


@dataclass(frozen=True)
class Plan:
    """One fully-determined execution strategy for one statement."""

    #: The bare dialect statement (no SLO suffix) this plan executes.
    statement: str
    operation: str
    #: ``probabilistic`` | ``naive`` | ``secure-sum``.
    protocol: str
    #: Protocol parameters for ranking plans; ``None`` on the additive path.
    params: ProtocolParams | None
    estimate: CostEstimate
    slo: Slo
    #: The objective that chose this plan (``quality`` or ``economy``).
    mode: str
    #: How many candidate configurations were enumerated and scored.
    candidates_considered: int

    @property
    def p0(self) -> float | None:
        if self.params is None:
            return None
        return getattr(self.params.schedule, "p0", None)

    @property
    def d(self) -> float | None:
        if self.params is None:
            return None
        return getattr(self.params.schedule, "d", None)

    def to_dict(self) -> dict:
        """A flat, JSON-serializable view (for artifacts and the CLI)."""
        est = self.estimate
        return {
            "statement": self.statement,
            "operation": self.operation,
            "protocol": self.protocol,
            "mode": self.mode,
            "p0": self.p0,
            "d": self.d,
            "rounds": est.rounds,
            "messages": est.messages,
            "bytes": est.bytes,
            "simulated_seconds": est.simulated_seconds,
            "wall_seconds": est.wall_seconds,
            "expected_lop": est.expected_lop,
            "parties": est.n_parties,
            "slo": self.slo.describe(),
            "candidates_considered": self.candidates_considered,
        }

    def explain(self) -> str:
        """Deterministic multi-line rendering of the chosen plan."""
        est = self.estimate
        lines = [
            f"statement         : {self.statement}",
            f"slo               : {self.slo.describe()}",
            f"mode              : {self.mode}",
            f"parties           : {est.n_parties}",
            f"protocol          : {self.protocol}",
        ]
        if self.protocol == PROBABILISTIC and self.p0 is not None:
            lines.append(
                f"randomization     : p0={_fmt(self.p0)} d={_fmt(self.d or 0.0)}"
            )
        lines += [
            f"rounds            : {est.rounds}",
            f"est. messages     : {est.messages}",
            f"est. bytes        : {_fmt(est.bytes)}",
            f"est. latency (sim): {_fmt(est.simulated_seconds)}s",
            f"est. expected LoP : {_fmt(est.expected_lop)}",
            f"candidates scored : {self.candidates_considered}",
        ]
        return "\n".join(lines)


__all__ = [
    "ECONOMY", "MODES", "Plan", "QUALITY", "expected_lop", "plan_or_refusal",
    "unplanned",
]
