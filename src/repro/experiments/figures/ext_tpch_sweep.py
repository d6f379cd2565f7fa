"""Extension experiment: TPC-H scale-factor sweep of extraction and planning.

The ROADMAP's production-scale question, asked as a figure: as each party's
``lineitem`` table grows by TPC-H scale factor, (a) how does the node-local
extraction step — the only part of a protocol run that touches raw rows —
scale on the columnar engine vs the row store, and (b) does the query
planner's cost model stay accurate, i.e. does predicted-vs-actual drift stay
flat as data volume grows?

The second panel is the planner's scale-invariance claim made measurable:
rounds, messages and simulated latency are functions of ``(n, k, params)``
only, so their drift must not move with the scale factor.  Rounds and
messages drift exactly zero.  Latency drifts only by float rounding: the
prediction is ``messages x hop_seconds``, the executed clock a running sum
of hop delays, and the two roundings differ in the last bits (7.228e-16 at
seed 0) identically at every scale.  Any other deviation means data volume
leaked into a quantity the model says is volume-free.

Scale factors here are deliberately tiny (thousands of rows per party, not
millions) so the figure runs in CI; the sweep is the harness for the
production-scale runs noted as headroom in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import time

from ...database.tpch import (
    LINEITEM_ROWS_PER_SF,
    TPCH_ATTRIBUTE,
    TPCH_PRICE_DOMAIN,
    lineitem_database,
    lineitem_databases,
)
from ...federation.coordinator import Federation
from ...planner.accuracy import POINT_METRICS, PredictionLedger
from ...planner.spec import parse_spec
from ..series import FigureData, Series

FIGURE_ID = "ext-tpch-sweep"

#: Swept TPC-H scale factors (rows per party = sf x 6M).  Small enough for
#: CI; production runs pass larger factors through the same harness.
SF_SWEEP = (0.0005, 0.001, 0.002, 0.004)

PARTIES = 3
TOP_K = 5


def _time_extraction(table, *, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one node-local top-k."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table.top_k(TPCH_ATTRIBUTE, TOP_K)
        best = min(best, time.perf_counter() - start)
    return best


def run(trials: int | None = None, seed: int = 0) -> list[FigureData]:
    repeats = max(3, (trials or 30) // 10)

    series: dict[str, list[tuple[float, float]]] = {
        "columnar top-k": [],
        "row top-k": [],
    }
    drift_points: dict[str, list[tuple[float, float]]] = {
        metric: [] for metric in POINT_METRICS
    }

    for sf in SF_SWEEP:
        rows = int(sf * LINEITEM_ROWS_PER_SF)
        for engine, label in (("columnar", "columnar"), ("row", "row")):
            table = lineitem_database(
                "party0", seed=seed, rows=rows, engine=engine
            ).table("lineitem")
            series[f"{label} top-k"].append(
                (sf, _time_extraction(table, repeats=repeats))
            )

        # Planner accuracy at this scale: plan and execute distinct-k
        # ranking statements (distinct so the result cache never answers),
        # then compare predictions against the measured outcomes.
        federation = Federation(domain=TPCH_PRICE_DOMAIN, seed=seed)
        for database in lineitem_databases(
            PARTIES, seed=seed, rows_per_party=rows
        ):
            federation.register(database)
        ledger = PredictionLedger()
        for k in range(2, 2 + max(3, repeats)):
            text = (
                f"SELECT TOP {k} {TPCH_ATTRIBUTE} FROM lineitem "
                "WITH SLO(deadline=5.0)"
            )
            plan = federation.plan_for(parse_spec(text))
            ledger.record_outcome(plan, federation.execute(text))
        for metric in POINT_METRICS:
            drift_points[metric].append((sf, ledger.drift(metric)))

    extraction_panel = FigureData(
        figure_id="ext-tpch-sweep-extraction",
        title="Node-local extraction seconds vs TPC-H scale factor",
        xlabel="scale factor (rows per party = sf x 6M)",
        ylabel="seconds (best of repeats)",
        series=tuple(
            Series(name, tuple(points)) for name, points in series.items()
        ),
        expectation="columnar scales sub-linearly ahead of the row store",
        metadata={"parties": PARTIES, "k": TOP_K, "timing": "wall-clock"},
    )
    drift_panel = FigureData(
        figure_id="ext-tpch-sweep-planner",
        title="Planner cost-prediction drift vs TPC-H scale factor",
        xlabel="scale factor (rows per party = sf x 6M)",
        ylabel="relative L1 drift",
        series=tuple(
            Series(f"{metric} drift", tuple(points))
            for metric, points in drift_points.items()
        ),
        expectation=(
            "flat across scale factors: rounds and messages drift exactly 0, "
            "latency only by float rounding (a product predicted, a sum of "
            "hop delays measured); all depend on (n, k, params), never on "
            "volume"
        ),
        metadata={"parties": PARTIES, "slo": "deadline=5.0"},
    )
    return [extraction_panel, drift_panel]
