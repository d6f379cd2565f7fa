"""Extension experiment: colluding neighbours and the remapping countermeasure.

Section 4.3 analyses the predecessor+successor coalition and proposes
per-round ring remapping.  This experiment measures (a) coalition LoP vs the
single-adversary LoP across node counts, and (b) how often a *static* pair
of colluders actually sandwiches its chosen victim under the two ring
policies — remapping reduces their useful rounds to chance.
"""

from __future__ import annotations

from ...privacy.adversary import victim_is_sandwiched
from ..config import PAPER_TRIALS
from ..runner import (
    aggregate_coalition_lop,
    aggregate_node_lop,
    run_trials,
)
from .common import FigureData, Series, TrialSetup, params_with

FIGURE_ID = "ext-collusion"

N_SWEEP = (4, 8, 16, 32)
ROUNDS = 8


def _sandwich_rate(results) -> float:
    """Fraction of (trial, round) slots where a fixed pair sandwiches its victim.

    The colluders pick their victim from the round-1 layout (the best they
    can do before the run); remapping then changes the neighbourhood under
    them.
    """
    hits = total = 0
    for result in results:
        ring = result.ring_history[1]
        victim = ring[1]
        colluders = (ring[0], ring[2])
        for round_number in result.event_log.rounds():
            total += 1
            hits += victim_is_sandwiched(result, victim, colluders, round_number)
    return hits / total if total else 0.0


def run(trials: int | None = None, seed: int = 0) -> list[FigureData]:
    trials = trials or PAPER_TRIALS

    single_points, coalition_points = [], []
    for n in N_SWEEP:
        setup = TrialSetup(
            n=n, k=1, params=params_with(1.0, 0.5, rounds=ROUNDS),
            trials=trials, seed=seed,
        )
        results = run_trials(setup)
        single, _ = aggregate_node_lop(results)
        coalition, _ = aggregate_coalition_lop(results)
        single_points.append((float(n), single))
        coalition_points.append((float(n), coalition))
    lop_panel = FigureData(
        figure_id="ext-collusion-lop",
        title="Single adversary vs colluding neighbours (average LoP)",
        xlabel="nodes",
        ylabel="average LoP",
        series=(
            Series("successor only", tuple(single_points)),
            Series("colluding pair", tuple(coalition_points)),
        ),
        expectation="collusion strictly increases exposure; both fall with n",
        metadata={"rounds": ROUNDS, "trials": trials},
    )

    rate_points = {"static": [], "remap": []}
    for label, remap in (("static", False), ("remap", True)):
        for n in N_SWEEP:
            setup = TrialSetup(
                n=n,
                k=1,
                params=params_with(1.0, 0.5, rounds=ROUNDS, remap_each_round=remap),
                trials=max(10, trials // 2),
                seed=seed,
            )
            results = run_trials(setup)
            rate_points[label].append((float(n), _sandwich_rate(results)))
    sandwich_panel = FigureData(
        figure_id="ext-collusion-sandwich",
        title="How often a fixed colluding pair sandwiches its victim",
        xlabel="nodes",
        ylabel="sandwich rate",
        series=(
            Series("static ring", tuple(rate_points["static"])),
            Series("remap each round", tuple(rate_points["remap"])),
        ),
        expectation="static: 100% every round; remap: falls toward chance ~2/(n-1)",
        metadata={"rounds": ROUNDS},
    )
    return [lop_panel, sandwich_panel]
