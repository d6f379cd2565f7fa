"""Bench: overhead of the differentially-private query mode.

DP queries run the *same* inner protocol as their plain counterparts and
add only mechanism calibration, seeded noise draws and accountant updates
on top — so the measured claims are:

* **Fresh-release overhead**: a batch of DP statements costs close to the
  identical plain batch in wall time (asserted under the embedded floor)
  and exactly the same simulated protocol time — the noise layer adds no
  rounds and no messages.
* **Free re-serve**: repeats of a released statement are cache-fast,
  byte-identical, and spend zero additional (ε, δ) — the accountant's
  ledger is unchanged after a full wave of repeats.

Emits ``results/BENCH_dp_overhead.json`` (floor on the row, checked by
``scripts/check_bench_floors.py``).  ``bench/``'s ``slo_dp`` workload serves
DP statements but never the identical plain batch beside them, so it cannot
state this ratio.
"""

import time

from benchdoc import emit, row
from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import Federation
from repro.privacy.dp import DpPolicy

from conftest import BENCH_SEED, make_vectors

N_PARTIES = 5
VALUES_PER_PARTY = 8
REPEATS = 25
#: Wall-clock passes per side, interleaved, each on a fresh federation; the
#: fastest pass of each side is compared (a batch takes a few ms).
WALL_PASSES = 5

#: Wall-time floor: the DP batch may cost at most this multiple of the
#: plain batch.  The noise layer is a handful of SHA-256 draws per release;
#: anything past 2x means a regression in the release path.
MAX_FRESH_OVERHEAD = 2.0

PLAIN_STATEMENTS = [
    "SELECT TOP 2 value FROM data",
    "SELECT MAX(value) FROM data",
    "SELECT SUM(value) FROM data",
    "SELECT COUNT(value) FROM data",
    "SELECT AVG(value) FROM data",
    "SELECT BOTTOM 2 value FROM data",
]
DP_STATEMENTS = [
    f"{s} WITH SLO(dp_epsilon=2.0)" for s in PLAIN_STATEMENTS
]


def fresh_federation(*, dp: bool) -> Federation:
    fed = Federation(
        domain=PAPER_DOMAIN,
        seed=BENCH_SEED,
        dp=DpPolicy(seed=BENCH_SEED) if dp else None,
    )
    vectors = make_vectors(N_PARTIES, VALUES_PER_PARTY, BENCH_SEED, prefix="org")
    for owner, values in vectors.items():
        fed.register(database_from_values(owner, values))
    return fed


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_dp_overhead():
    # -- fresh-release overhead vs the identical plain batch --------------
    def serve(dp: bool, statements: list[str]) -> list:
        return fresh_federation(dp=dp).execute_many_settled(statements)

    plain_outcomes = serve(False, PLAIN_STATEMENTS)
    dp_fed = fresh_federation(dp=True)
    dp_outcomes = dp_fed.execute_many_settled(DP_STATEMENTS)

    # The noise layer must not change what the protocol does underneath.
    # (AVG's inner SUM/COUNT are batch-cache hits of the earlier statements,
    # so its message count is legitimately zero — inner reuse, not skipping.)
    for plain, noised in zip(plain_outcomes, dp_outcomes):
        assert noised.protocol == f"{plain.protocol}+dp"
    plain_sim = sum(o.simulated_seconds for o in plain_outcomes)
    dp_sim = sum(o.simulated_seconds for o in dp_outcomes)

    plain_wall = dp_wall = float("inf")
    for _ in range(WALL_PASSES):
        plain_wall = min(
            plain_wall,
            _timed(lambda: serve(False, PLAIN_STATEMENTS)),
        )
        dp_wall = min(
            dp_wall,
            _timed(lambda: serve(True, DP_STATEMENTS)),
        )

    # -- free re-serve: byte-identical, zero budget ------------------------
    ledger_before = dp_fed.dp_gate.accountant.ledger_lines()
    spent_before = dp_fed.dp_gate.accountant.epsilon.spent
    start = time.perf_counter()
    for _ in range(REPEATS):
        repeats = dp_fed.execute_many_settled(DP_STATEMENTS)
        for first, again in zip(dp_outcomes, repeats):
            assert again.values == first.values
            assert again.cached and again.rounds == 0 and again.messages == 0
    repeat_wall = time.perf_counter() - start
    assert dp_fed.dp_gate.accountant.ledger_lines() == ledger_before
    assert dp_fed.dp_gate.accountant.epsilon.spent == spent_before
    assert dp_fed.dp_gate.accountant.free_serves == REPEATS * len(DP_STATEMENTS)
    accountant = dp_fed.dp_gate.accountant
    emit(
        "dp_overhead",
        f"{len(DP_STATEMENTS)} statements (TOP, MAX, SUM, COUNT, AVG, BOTTOM) as "
        "one execute_many_settled batch on a fresh 5-party federation per run, "
        f"once plain and once WITH SLO(dp_epsilon=2.0); {WALL_PASSES} passes per "
        "side, interleaved in one process, fastest of each; the DP side adds "
        "mechanism calibration, seeded noise draws and accountant updates over "
        "the same inner protocol runs.  The re-serve row is "
        f"{REPEATS} waves of the released batch through execute_many_settled, "
        "each answer checked byte-identical and free inside the timed loop",
        [
            row(
                "fresh_dp_batch_over_plain_batch",
                dp_wall / plain_wall,
                "x",
                at_most=MAX_FRESH_OVERHEAD,
            ),
            row("plain_batch_seconds", plain_wall, "s"),
            row("dp_batch_seconds", dp_wall, "s"),
            row(
                "free_reserve_queries_per_second",
                REPEATS * len(DP_STATEMENTS) / repeat_wall,
                "1/s",
            ),
            row("plain_simulated_seconds", plain_sim, "s", clock="sim"),
            row("dp_simulated_seconds", dp_sim, "s", clock="sim"),
            row("epsilon_spent", accountant.epsilon.spent, "epsilon", clock="count"),
            row("releases", accountant.releases, "releases", clock="count"),
            row("free_serves", accountant.free_serves, "serves", clock="count"),
        ],
    )
