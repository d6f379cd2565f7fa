"""Extension experiment: differential privacy vs the paper's LoP metric.

The paper quantifies leakage as LoP — the probability a semi-honest
coalition pins a node's private value during protocol execution.  The DP
query mode (:mod:`repro.privacy.dp`) spends a different currency: every
released answer is perturbed so adjacent datasets are (ε, δ)-indistinguishable,
regardless of what the coalition observed in transit.  This experiment puts
the two on one axis:

* **utility panel** — mean absolute error of released answers (normalized
  by the domain width) vs ε, measured through a real
  :class:`~repro.federation.coordinator.Federation` running the DP mode
  end to end (exact inner protocol, so all error is calibrated noise);
* **privacy panel** — the analytic one-shot distinguishing advantage bound
  ``(e^ε − 1)/(e^ε + 1)``, the *measured* total-variation distance between
  release distributions on adjacent COUNTs, and the paper protocol's
  measured average LoP (n=4, paper defaults) as a horizontal reference:
  the ε below which a single DP release leaks less than one protocol run.

Everything is seeded: reruns produce byte-identical CSVs.
"""

from __future__ import annotations

import random
from collections import Counter

from ...database.database import PrivateDatabase
from ...database.query import Domain
from ...database.schema import Schema
from ...federation.coordinator import Federation
from ...privacy.dp import DpPolicy, calibrate_mechanism
from ..config import PAPER_TRIALS
from ..runner import aggregate_node_lop, run_trials
from .common import FigureData, Series, TrialSetup

FIGURE_ID = "ext-dp"

#: Epsilons swept on the x axis (log-ish spread around the useful range).
EPSILON_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
#: Independent releases averaged per (ε, operation) point in the utility
#: panel, one per federation.
RELEASES_PER_POINT = 8
#: Federation shape: small and exact, so noise is the only error source.
N_PARTIES = 4
ROWS_PER_PARTY = 25
DOMAIN = Domain(low=0.0, high=10_000.0, integral=True)
TABLE = "data"
ATTRIBUTE = "value"
#: Operations measured in the utility panel, with the statement template.
OPERATIONS = (
    ("MAX", "SELECT MAX({attr}) FROM {table}"),
    ("SUM", "SELECT SUM({attr}) FROM {table}"),
    ("COUNT", "SELECT COUNT({attr}) FROM {table}"),
)


def _build_federation(seed: int, dp_seed: int) -> tuple[Federation, dict[str, float]]:
    """An exact federation (``p0=0``) over seeded integer rows.

    Returns the federation plus the true (un-noised) answer per operation,
    computed directly from the generated rows.  ``dp_seed`` keys its noise.
    """
    from ...core.params import ProtocolParams
    from ...core.schedule import ExponentialSchedule
    from ...core.driver import RunConfig

    config = RunConfig(
        protocol="probabilistic",
        params=ProtocolParams(schedule=ExponentialSchedule(p0=0.0), rounds=4),
    )
    federation = Federation(
        domain=DOMAIN,
        config=config,
        seed=seed,
        dp=DpPolicy(seed=dp_seed),  # unmetered: the sweep needs unlimited budget
    )
    rng = random.Random(seed)
    rows: list[int] = []
    for party in range(N_PARTIES):
        db = PrivateDatabase(f"org{party:02d}")
        table = db.create_table(TABLE, Schema.of((ATTRIBUTE, "INTEGER")))
        held = [
            rng.randint(int(DOMAIN.low), int(DOMAIN.high))
            for _ in range(ROWS_PER_PARTY)
        ]
        rows.extend(held)
        table.insert_arrays({ATTRIBUTE: held})
        federation.register(db)
    truth = {
        "MAX": float(max(rows)),
        "SUM": float(sum(rows)),
        "COUNT": float(len(rows)),
    }
    return federation, truth


def _utility_panel(trials: int, seed: int) -> FigureData:
    """Normalized mean absolute release error vs ε, through the federation.

    Each point averages :data:`RELEASES_PER_POINT` independent releases,
    one from each of as many federations over the same seeded rows, each
    with its own DP seed derived from ``seed``.  A repeat on one federation
    would not be a new sample: equal inner answers key equal noise, so it
    re-serves the same bytes free — that is the free-re-serve guarantee.
    """
    releases = max(2, min(RELEASES_PER_POINT, trials))
    built = [
        _build_federation(seed, seed * RELEASES_PER_POINT + release)
        for release in range(releases)
    ]
    truth = built[0][1]
    width = DOMAIN.high - DOMAIN.low
    scale = {"MAX": width, "SUM": width, "COUNT": float(N_PARTIES * ROWS_PER_PARTY)}
    series = []
    for operation, template in OPERATIONS:
        statement = template.format(attr=ATTRIBUTE, table=TABLE)
        points = []
        for epsilon in EPSILON_SWEEP:
            text = f"{statement} WITH SLO(dp_epsilon={epsilon})"
            errors = [
                abs(federation.execute(text).values[0] - truth[operation])
                for federation, _truth in built
            ]
            points.append(
                (epsilon, sum(errors) / len(errors) / scale[operation])
            )
        series.append(Series(operation, tuple(points)))
    return FigureData(
        figure_id="ext-dp-utility",
        title="DP release error vs epsilon (exact inner protocol)",
        xlabel="epsilon",
        ylabel="mean |error| / domain width",
        series=tuple(series),
        expectation="error falls roughly as 1/epsilon for every operation",
        metadata={
            "releases_per_point": releases,
            "parties": N_PARTIES,
            "rows_per_party": ROWS_PER_PARTY,
            "epsilon_sweep": list(EPSILON_SWEEP),
        },
    )


def _measured_tv(epsilon: float, samples: int, rng: random.Random) -> float:
    """Empirical total-variation distance between adjacent COUNT releases.

    Adjacent COUNTs differ by one row (sensitivity 1); the release
    mechanism is the two-sided geometric.  TV is estimated from sampled
    histograms of ``noise`` vs ``noise + 1``.
    """
    mechanism = calibrate_mechanism(1.0, epsilon, integral=True)
    base = Counter(int(mechanism.draw(rng)) for _ in range(samples))
    shifted = Counter(value + 1 for value in base.elements())
    support = set(base) | set(shifted)
    return 0.5 * sum(
        abs(base.get(k, 0) - shifted.get(k, 0)) for k in support
    ) / samples


def _privacy_panel(trials: int, seed: int) -> FigureData:
    """Distinguishing advantage vs ε, against the paper's LoP as reference."""
    import math

    samples = max(2_000, 200 * trials)
    rng = random.Random(seed + 1)
    bound_points = []
    tv_points = []
    for epsilon in EPSILON_SWEEP:
        bound_points.append(
            (epsilon, (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0))
        )
        tv_points.append((epsilon, _measured_tv(epsilon, samples, rng)))
    setup = TrialSetup(n=N_PARTIES, k=1, trials=trials, seed=seed)
    lop_average, _ = aggregate_node_lop(run_trials(setup))
    lop_points = tuple((epsilon, lop_average) for epsilon in EPSILON_SWEEP)
    return FigureData(
        figure_id="ext-dp-privacy",
        title="Distinguishing advantage vs epsilon, LoP reference",
        xlabel="epsilon",
        ylabel="advantage / probability",
        series=(
            Series("advantage bound (e^eps-1)/(e^eps+1)", tuple(bound_points)),
            Series("measured TV, adjacent COUNTs", tuple(tv_points)),
            Series(f"paper protocol avg LoP (n={N_PARTIES})", lop_points),
        ),
        expectation=(
            "measured TV hugs the analytic bound from below; releases with "
            "epsilon below the LoP crossover leak less than one protocol run"
        ),
        metadata={
            "samples": samples,
            "trials": trials,
            "epsilon_sweep": list(EPSILON_SWEEP),
        },
    )


def run(trials: int | None = None, seed: int = 0) -> list[FigureData]:
    trials = trials or PAPER_TRIALS
    return [_utility_panel(trials, seed), _privacy_panel(trials, seed)]
