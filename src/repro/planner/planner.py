"""The plan enumerator and chooser.

:class:`QueryPlanner` turns a parsed :class:`~repro.planner.spec.QuerySpec`
into one :class:`~repro.planner.plan.Plan`:

1. **Enumerate** candidate configurations.  For ranking statements that is
   the Figure 9 (p0, d) grid, plus the round-budget optimum from
   :func:`~repro.analysis.optimization.optimal_parameters` when the SLO
   implies a budget, plus — only when the SLO explicitly permits it — the
   single-round naive protocol.  Additive statements have exactly one
   strategy (mask-blinded secure sums), so enumeration degenerates.
2. **Filter** by feasibility against the declared SLO: Equation 4 rounds
   against ``max_rounds``, the Equation 6 expected-LoP bound against
   ``max_lop``, predicted simulated seconds against ``deadline``.
3. **Choose** deterministically.  ``quality`` (the default) minimizes
   ``(expected LoP, messages)``; ``economy`` — the gateway's downgrade
   objective under cost pressure — minimizes ``(messages, expected LoP)``.
   Ties break on ``(-p0, -d)`` so equal-cost plans prefer the paper's
   better-privacy corner, making the choice a pure function of
   (statement, SLO, parties, calibration).

The naive protocol is never chosen silently: it is enumerated only when
the SLO forces ``protocol=naive`` or declares a ``max_lop`` privacy budget
that its Equation 5 exposure fits.  An undeclared budget is not consent to
the worst-case protocol.

When nothing survives the filter, :class:`PlanInfeasible` is raised with
one deterministic reason line per rejected candidate family — that error
means *relax the SLO*, not *retry later*.

The choice reads a statement's operation and ``k``, never its table or
attribute, so a planner computes it once per ``(operation, k, SLO,
parties, mode)`` and hands every statement of that shape the stored plan
carrying its own text.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import TYPE_CHECKING

from ..analysis.optimization import OptimizationError, optimal_parameters
from ..core.params import ProtocolParams
from ..federation.sql import ADDITIVE_AGGREGATES
from .cost import NAIVE, PROBABILISTIC, Calibration, CostEstimate, CostModel
from .errors import PlanInfeasible
from .plan import MODES, QUALITY, Plan, unplanned
from .spec import QuerySpec, Slo, parse_spec

if TYPE_CHECKING:
    from ..core.driver import RunConfig

#: The paper's default error bound, used when the SLO declares none.
DEFAULT_EPSILON = 1e-3

#: The Figure 9 enumeration grid (matches ``analysis.optimization``'s
#: pareto grid so plans land on studied operating points).
P0_GRID = (0.25, 0.5, 0.75, 1.0)
D_GRID = (0.125, 0.25, 0.5, 0.75)

#: Most plan shapes one planner keeps (least recently used goes first):
#: the bound of :func:`~repro.planner.spec.prepare`'s statement forms.
PLAN_ENTRIES = 1024


class QueryPlanner:
    """Choose protocol and parameters for dialect statements.

    Parameters
    ----------
    calibration:
        Measured per-unit cost constants; defaults to the reference
        container's.
    """

    def __init__(self, calibration: Calibration | None = None) -> None:
        self.cost_model = CostModel(calibration)
        #: ``(operation, k, slo, parties, mode, base configuration or None)``
        #: -> the plan, most recently used last.  A refusal is never stored.
        self._plans: dict[tuple, Plan] = {}
        self._plans_lock = threading.Lock()

    # -- public API --------------------------------------------------------

    def plan(
        self,
        spec: QuerySpec | str,
        *,
        parties: int,
        mode: str = QUALITY,
        base: "RunConfig | None" = None,
    ) -> Plan:
        """The chosen :class:`Plan` for ``spec`` over ``parties`` nodes.

        Computed once per ``(operation, k, SLO, parties, mode)`` on this
        planner (the last :data:`PLAN_ENTRIES` shapes used); a statement of
        a known shape gets the stored plan with its own text.

        ``base`` is the configuration a statement without objectives runs
        on.  Given it, nothing is chosen for such a statement in quality
        mode: its plan is that configuration with the cost model's
        estimate, so whatever reads the plan -- cost admission, the
        prediction ledger, a tenant's LoP charge -- reads what runs.
        """
        if isinstance(spec, str):
            spec = parse_spec(spec)
        if mode not in MODES:
            raise ValueError(f"unknown planner mode {mode!r}; expected {MODES}")
        statement = spec.statement
        if parties < 3:
            raise PlanInfeasible(
                f"the protocols require at least 3 parties, got {parties}",
                statement=statement.text,
                reasons=(f"federation has {parties} parties; the ring "
                         "protocols need n >= 3",),
            )
        unchosen = None
        if base is not None and unplanned(spec, mode):
            unchosen = (base.protocol, base.params)
        key = (statement.operation, statement.k, spec.slo, parties, mode, unchosen)
        with self._plans_lock:
            plan = self._plans.pop(key, None)
            if plan is not None:
                self._plans[key] = plan
        if plan is None:
            if statement.operation in ADDITIVE_AGGREGATES:
                plan = self._plan_additive(spec, parties=parties, mode=mode)
            elif unchosen is not None:
                estimate = self.cost_model.ranking_estimate(
                    n_parties=parties, k=statement.k, protocol=unchosen[0],
                    params=unchosen[1],
                )
                plan = _chosen(spec, *unchosen, estimate, mode)
            else:
                plan = self._plan_ranking(spec, parties=parties, mode=mode)
            with self._plans_lock:
                self._plans[key] = plan
                if len(self._plans) > PLAN_ENTRIES:
                    del self._plans[next(iter(self._plans))]
        if plan.statement != statement.text:
            plan = replace(plan, statement=statement.text)
        return plan

    # -- additive ----------------------------------------------------------

    def _plan_additive(self, spec: QuerySpec, *, parties: int, mode: str) -> Plan:
        statement, slo = spec.statement, spec.slo
        reasons: list[str] = []
        if slo.protocol is not None:
            reasons.append(
                f"{statement.operation} statements run mask-blinded secure "
                f"sums; protocol={slo.protocol} does not apply"
            )
        if slo.epsilon is not None:
            reasons.append(
                "secure sums are exact; an epsilon target does not apply"
            )
        if reasons:
            raise PlanInfeasible(
                f"no secure-sum plan satisfies the SLO for "
                f"{statement.text!r}",
                statement=statement.text,
                reasons=tuple(reasons),
            )
        estimate = self.cost_model.additive_estimate(
            n_parties=parties, operation=statement.operation
        )
        # Secure sums never advance the service clock and leak nothing the
        # masks don't hide, so any deadline / max_lop / max_rounds budget
        # is trivially satisfied.
        return _chosen(spec, estimate.protocol, None, estimate, mode)

    # -- ranking -----------------------------------------------------------

    def _plan_ranking(self, spec: QuerySpec, *, parties: int, mode: str) -> Plan:
        statement, slo = spec.statement, spec.slo
        epsilon = slo.epsilon if slo.epsilon is not None else DEFAULT_EPSILON
        round_budget = self._round_budget(slo, parties)
        reasons: list[str] = []
        candidates: list[tuple[str, ProtocolParams | None, CostEstimate]] = []

        if slo.protocol != NAIVE:
            for p0, d in self._probabilistic_grid(epsilon, round_budget):
                params = ProtocolParams.with_randomization(p0, d, epsilon=epsilon)
                estimate = self.cost_model.ranking_estimate(
                    n_parties=parties,
                    k=statement.k,
                    protocol=PROBABILISTIC,
                    params=params,
                )
                verdict = self._feasibility(estimate, slo, round_budget)
                if verdict is None:
                    candidates.append((PROBABILISTIC, params, estimate))
                else:
                    reasons.append(
                        f"probabilistic p0={p0:g} d={d:g}: {verdict}"
                    )

        naive_allowed = slo.protocol == NAIVE or slo.max_lop is not None
        if slo.protocol != PROBABILISTIC:
            estimate = self.cost_model.ranking_estimate(
                n_parties=parties,
                k=statement.k,
                protocol=NAIVE,
                params=ProtocolParams.paper_defaults(),
            )
            if not naive_allowed:
                reasons.append(
                    "naive: only eligible when the SLO forces protocol=naive "
                    "or declares a max_lop its exposure fits"
                )
            else:
                verdict = self._feasibility(estimate, slo, round_budget)
                if verdict is None:
                    candidates.append((NAIVE, None, estimate))
                else:
                    reasons.append(f"naive: {verdict}")

        if not candidates:
            raise PlanInfeasible(
                f"no plan satisfies the SLO ({slo.describe()}) for "
                f"{statement.text!r}",
                statement=statement.text,
                reasons=tuple(reasons),
            )

        considered = len(candidates) + len(reasons)
        protocol, params, estimate = min(
            candidates, key=lambda cand: self._rank_key(cand, mode)
        )
        if protocol == NAIVE:
            # The executing config still needs valid params; the session
            # ignores the schedule for naive runs but validates rounds.
            params = ProtocolParams.paper_defaults(rounds=1)
        return _chosen(spec, protocol, params, estimate, mode, considered)

    # -- internals ---------------------------------------------------------

    def _probabilistic_grid(
        self, epsilon: float, round_budget: int | None
    ) -> list[tuple[float, float]]:
        """The (p0, d) candidates: the Figure 9 grid + the budget optimum."""
        grid = [(p0, d) for p0 in P0_GRID for d in D_GRID]
        if round_budget is not None and round_budget >= 1:
            try:
                best = optimal_parameters(epsilon, round_budget)
            except OptimizationError:
                pass  # the grid's own reasons will explain infeasibility
            else:
                pair = (best.p0, best.d)
                if pair not in grid:
                    grid.append(pair)
        return grid

    def _round_budget(self, slo: Slo, parties: int) -> int | None:
        """The tightest round budget the SLO implies, if any.

        A simulated-seconds deadline bounds messages (the token is
        sequential: ``seconds = n * (rounds + 1) * hop``), hence rounds.
        """
        budgets: list[int] = []
        if slo.max_rounds is not None:
            budgets.append(slo.max_rounds)
        if slo.deadline is not None:
            hop = self.cost_model.calibration.hop_seconds
            budgets.append(int(math.floor(slo.deadline / (parties * hop))) - 1)
        return min(budgets) if budgets else None

    @staticmethod
    def _feasibility(
        estimate: CostEstimate, slo: Slo, round_budget: int | None
    ) -> str | None:
        """Why ``estimate`` violates ``slo``; ``None`` when feasible."""
        if round_budget is not None and estimate.rounds > round_budget:
            return (
                f"needs {estimate.rounds} rounds, budget is "
                f"{max(round_budget, 0)}"
            )
        if slo.max_lop is not None and estimate.expected_lop > slo.max_lop:
            return (
                f"expected LoP bound {estimate.expected_lop:.4f} exceeds "
                f"max_lop {slo.max_lop:g}"
            )
        if (
            slo.deadline is not None
            and estimate.simulated_seconds > slo.deadline
        ):
            return (
                f"predicted {estimate.simulated_seconds:.4f}s exceeds "
                f"deadline {slo.deadline:g}s"
            )
        return None

    @staticmethod
    def _rank_key(
        candidate: tuple[str, ProtocolParams | None, CostEstimate], mode: str
    ) -> tuple:
        protocol, params, estimate = candidate
        schedule = getattr(params, "schedule", None)
        p0 = getattr(schedule, "p0", 0.0) or 0.0
        d = getattr(schedule, "d", 0.0) or 0.0
        if mode == QUALITY:
            return (estimate.expected_lop, estimate.messages, -p0, -d)
        return (estimate.messages, estimate.expected_lop, -p0, -d)


def _chosen(
    spec: QuerySpec,
    protocol: str,
    params: ProtocolParams | None,
    estimate: CostEstimate,
    mode: str,
    considered: int = 1,
) -> Plan:
    """``spec``'s plan: one configuration and the estimate behind it."""
    statement = spec.statement
    return Plan(
        statement.text, statement.operation, protocol, params, estimate, spec.slo,
        mode, considered,
    )


__all__ = ["DEFAULT_EPSILON", "D_GRID", "P0_GRID", "PLAN_ENTRIES", "QueryPlanner"]
