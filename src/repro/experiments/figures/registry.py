"""Registry mapping experiment ids to their runners.

Every table and figure of the paper's evaluation has an entry.  Figure
runners return ``list[FigureData]`` (one per panel); the table runner
returns rendered text.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .. import telemetry
from ..runner import using_jobs
from ..series import FigureData
from . import (
    ext_bayes,
    ext_bound_check,
    ext_collusion,
    ext_communication,
    ext_distributions,
    ext_dp,
    ext_noise,
    ext_tpch_sweep,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    table1,
)

FigureRunner = Callable[..., list[FigureData]]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    experiment_id: str
    paper_artifact: str
    kind: str  # "analytic" | "empirical" | "table"
    description: str
    runner: Callable


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "table1", "Table 1", "table",
            "experiment parameter glossary and harness defaults", table1.run,
        ),
        Experiment(
            "fig3", "Figure 3(a,b)", "analytic",
            "precision bound (Eq. 3) vs rounds", fig3.run,
        ),
        Experiment(
            "fig4", "Figure 4(a,b)", "analytic",
            "minimum rounds (Eq. 4) vs error bound", fig4.run,
        ),
        Experiment(
            "fig5", "Figure 5(a,b)", "analytic",
            "expected LoP bound (Eq. 6) vs rounds", fig5.run,
        ),
        Experiment(
            "fig6", "Figure 6(a,b)", "empirical",
            "measured max-selection precision vs rounds", fig6.run,
        ),
        Experiment(
            "fig7", "Figure 7(a,b)", "empirical",
            "measured per-round LoP of max selection (n=4)", fig7.run,
        ),
        Experiment(
            "fig8", "Figure 8(a,b)", "empirical",
            "measured LoP vs number of nodes", fig8.run,
        ),
        Experiment(
            "fig9", "Figure 9", "empirical",
            "privacy vs efficiency across (p0, d) pairs", fig9.run,
        ),
        Experiment(
            "fig10", "Figure 10(a,b)", "empirical",
            "LoP vs nodes: probabilistic vs naive baselines", fig10.run,
        ),
        Experiment(
            "fig11", "Figure 11", "empirical",
            "measured top-k precision vs rounds (varying k)", fig11.run,
        ),
        Experiment(
            "fig12", "Figure 12(a,b)", "empirical",
            "LoP vs k: probabilistic vs naive baselines", fig12.run,
        ),
        Experiment(
            "ext-distributions", "Section 5.1 claim", "extension",
            "precision/LoP across uniform, normal and zipf data",
            ext_distributions.run,
        ),
        Experiment(
            "ext-communication", "Section 4.2 model", "extension",
            "measured messages/latency vs the analytic cost model",
            ext_communication.run,
        ),
        Experiment(
            "ext-collusion", "Section 4.3 analysis", "extension",
            "coalition LoP and the per-round remapping countermeasure",
            ext_collusion.run,
        ),
        Experiment(
            "ext-bayes", "Section 7 future work", "extension",
            "multi-round Bayesian aggregation against one victim",
            ext_bayes.run,
        ),
        Experiment(
            "ext-noise", "Section 7 future work", "extension",
            "noise-placement strategies: precision vs LoP tradeoff",
            ext_noise.run,
        ),
        Experiment(
            "ext-dp", "ROADMAP privacy item", "extension",
            "DP release error and distinguishing advantage vs epsilon, "
            "with the paper's LoP as reference",
            ext_dp.run,
        ),
        Experiment(
            "ext-bound-check", "Section 5.3 claim", "extension",
            "measured per-round LoP against the Equation 6 bound",
            ext_bound_check.run,
        ),
        Experiment(
            "ext-tpch-sweep", "ROADMAP scale item", "extension",
            "extraction seconds and planner drift vs TPC-H scale factor",
            ext_tpch_sweep.run,
        ),
    )
}


def run_experiment(
    experiment_id: str,
    *,
    trials: int | None = None,
    seed: int = 0,
    jobs: int | None = None,
    timing: bool = False,
) -> list[FigureData] | str:
    """Run one experiment by id; figures return panels, table1 returns text.

    ``jobs`` fans every sweep point's trials across that many worker
    processes (results stay bit-identical to serial; ``None`` keeps the
    ambient default).  ``timing`` embeds the run's cost summary —
    wall clock, trial compute, worker utilization, failures — into each
    returned panel's ``metadata["timing"]`` so reports and SVG output can
    show what the panel cost.  Timing is opt-in because wall-clock values
    are non-deterministic and would churn otherwise-reproducible artifacts.
    """
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    if experiment.kind == "table":
        return experiment.runner()
    with using_jobs(jobs), telemetry.collect() as collector:
        panels = experiment.runner(trials=trials, seed=seed)
    if timing and collector.points:
        for panel in panels:
            panel.metadata["timing"] = collector.summary()
    return panels


def all_experiment_ids() -> list[str]:
    """Experiment ids in paper order."""
    return list(EXPERIMENTS)
