"""Registry mapping experiment ids to their runners.

Every table and figure of the paper's evaluation has an entry.  Figure
runners return ``list[FigureData]`` (one per panel); the table runner
returns rendered text.

An entry names its figure module rather than holding its ``run``:
:func:`run_experiment` imports the module the first time the figure runs,
so importing the registry (``repro-topk list``, the first thing every
``figure`` / ``all`` / ``validate`` / ``report`` pays) loads no figure and
nothing only a figure uses — ``ext-dp``'s federation, planner and DP stack
among them (DESIGN.md 4e).  The trial runner is the exception: the
``experiments`` package loads it eagerly, and every empirical figure runs it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module

from .. import telemetry
from ..runner import using_jobs
from ..series import FigureData

FigureRunner = Callable[..., list[FigureData]]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    experiment_id: str
    paper_artifact: str
    kind: str  # "analytic" | "empirical" | "table"
    description: str
    #: Dotted name of the module whose ``run`` produces the artifact.
    module: str

    @property
    def runner(self) -> Callable:
        """The module's ``run``, importing the module on first use."""
        return import_module(self.module).run


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "table1", "Table 1", "table",
            "experiment parameter glossary and harness defaults",
            "repro.experiments.figures.table1",
        ),
        Experiment(
            "fig3", "Figure 3(a,b)", "analytic",
            "precision bound (Eq. 3) vs rounds",
            "repro.experiments.figures.fig3",
        ),
        Experiment(
            "fig4", "Figure 4(a,b)", "analytic",
            "minimum rounds (Eq. 4) vs error bound",
            "repro.experiments.figures.fig4",
        ),
        Experiment(
            "fig5", "Figure 5(a,b)", "analytic",
            "expected LoP bound (Eq. 6) vs rounds",
            "repro.experiments.figures.fig5",
        ),
        Experiment(
            "fig6", "Figure 6(a,b)", "empirical",
            "measured max-selection precision vs rounds",
            "repro.experiments.figures.fig6",
        ),
        Experiment(
            "fig7", "Figure 7(a,b)", "empirical",
            "measured per-round LoP of max selection (n=4)",
            "repro.experiments.figures.fig7",
        ),
        Experiment(
            "fig8", "Figure 8(a,b)", "empirical",
            "measured LoP vs number of nodes",
            "repro.experiments.figures.fig8",
        ),
        Experiment(
            "fig9", "Figure 9", "empirical",
            "privacy vs efficiency across (p0, d) pairs",
            "repro.experiments.figures.fig9",
        ),
        Experiment(
            "fig10", "Figure 10(a,b)", "empirical",
            "LoP vs nodes: probabilistic vs naive baselines",
            "repro.experiments.figures.fig10",
        ),
        Experiment(
            "fig11", "Figure 11", "empirical",
            "measured top-k precision vs rounds (varying k)",
            "repro.experiments.figures.fig11",
        ),
        Experiment(
            "fig12", "Figure 12(a,b)", "empirical",
            "LoP vs k: probabilistic vs naive baselines",
            "repro.experiments.figures.fig12",
        ),
        Experiment(
            "ext-distributions", "Section 5.1 claim", "extension",
            "precision/LoP across uniform, normal and zipf data",
            "repro.experiments.figures.ext_distributions",
        ),
        Experiment(
            "ext-communication", "Section 4.2 model", "extension",
            "measured messages/latency vs the analytic cost model",
            "repro.experiments.figures.ext_communication",
        ),
        Experiment(
            "ext-collusion", "Section 4.3 analysis", "extension",
            "coalition LoP and the per-round remapping countermeasure",
            "repro.experiments.figures.ext_collusion",
        ),
        Experiment(
            "ext-bayes", "Section 7 future work", "extension",
            "multi-round Bayesian aggregation against one victim",
            "repro.experiments.figures.ext_bayes",
        ),
        Experiment(
            "ext-noise", "Section 7 future work", "extension",
            "noise-placement strategies: precision vs LoP tradeoff",
            "repro.experiments.figures.ext_noise",
        ),
        Experiment(
            "ext-dp", "ROADMAP privacy item", "extension",
            "DP release error and distinguishing advantage vs epsilon, "
            "with the paper's LoP as reference",
            "repro.experiments.figures.ext_dp",
        ),
        Experiment(
            "ext-bound-check", "Section 5.3 claim", "extension",
            "measured per-round LoP against the Equation 6 bound",
            "repro.experiments.figures.ext_bound_check",
        ),
        Experiment(
            "ext-tpch-sweep", "ROADMAP scale item", "extension",
            "extraction seconds and planner drift vs TPC-H scale factor",
            "repro.experiments.figures.ext_tpch_sweep",
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
