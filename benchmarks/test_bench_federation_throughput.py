"""Bench: federated query throughput — a batch vs one statement at a time.

Measured end to end through ``Federation.execute_many_settled`` on the wall
clock:

* **Batch vs sequential**: 8 distinct ranking statements served as one
  batch against the same 8 served one ``execute`` at a time.  A batch of 8
  is below the vectorized engine's crossover, so both sides run the scalar
  kernel and the expectation is parity within noise, not a win; the floor
  says the batch path must not cost more than serving the statements one
  at a time (as it did when it paid for the engine at B=8).  The *cost
  model* prices the same batch at one query's simulated seconds instead of
  eight -- an identity of the model, recorded as a ``sim`` row and pinned
  exactly by ``tests/service/test_gateway.py`` (``TestSimulatedTime``),
  never floored here.
* **Result cache**: repeats of an answered statement are O(1) lookups —
  zero protocol rounds, zero messages, zero new ledger exposure; the wall
  rate of those hits is recorded beside the (exact) hit count.

Emits ``results/BENCH_federation_throughput.json`` (floor on the row,
checked by ``scripts/check_bench_floors.py``).  ``bench/`` drives the
gateway, which always batches; it has no workload that serves the same
statements unbatched, so it cannot state this ratio.
"""

import time

from benchdoc import emit, row
from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import Federation

from conftest import BENCH_SEED

#: The acceptance batch size: 8 distinct ranking statements.
BATCH_QUERIES = 8
#: Repeats per statement in the cache measurement.
CACHE_REPEATS = 25
#: Wall-clock passes per side, interleaved, each on a fresh federation; the
#: fastest pass of each side is compared (a batch of 8 takes a few ms).
WALL_PASSES = 5
MIN_WALL_SPEEDUP = 0.8

PARTIES = {
    "acme": [100, 900, 250, 4100, 66],
    "bravo": [9000, 40, 1200, 380],
    "corex": [7000, 6500, 3, 2950],
    "delta": [5, 8100, 777, 1500],
    "erie": [4800, 23, 610, 5400],
}

#: Eight distinct ranking statements (all run the probabilistic protocol).
STATEMENTS = [
    f"SELECT TOP {k} value FROM data" for k in (1, 2, 3, 4)
] + [
    f"SELECT BOTTOM {k} value FROM data" for k in (1, 2, 3)
] + ["SELECT MAX(value) FROM data"]


def fresh_federation() -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=BENCH_SEED)
    for owner, values in PARTIES.items():
        fed.register(database_from_values(owner, values))
    return fed


def test_bench_federation_throughput():
    assert len(STATEMENTS) == BATCH_QUERIES

    # -- sequential baseline vs pipelined batch, interleaved passes ---------
    seq_wall = batch_wall = float("inf")
    for _ in range(WALL_PASSES):
        seq_fed = fresh_federation()
        start = time.perf_counter()
        sequential = [seq_fed.execute(s) for s in STATEMENTS]
        seq_wall = min(seq_wall, time.perf_counter() - start)

        batch_fed = fresh_federation()
        start = time.perf_counter()
        batch = batch_fed.execute_many_settled(STATEMENTS)
        batch_wall = min(batch_wall, time.perf_counter() - start)
    seq_sim = sum(o.simulated_seconds for o in sequential)
    batch_sim = max(o.simulated_seconds for o in batch)

    # Parity first: the speedup must not come from computing something else.
    for b, s in zip(batch, sequential):
        assert b.values == s.values
        assert b.rounds == s.rounds
    for owner in PARTIES:
        assert batch_fed.ledger.exposure(owner) == seq_fed.ledger.exposure(owner)

    # -- cache: repeats are O(1), zero protocol, zero new exposure ---------
    cache_fed = fresh_federation()
    repeated = [STATEMENTS[0]] * CACHE_REPEATS
    outcomes = cache_fed.execute_many_settled(repeated)
    assert not outcomes[0].cached
    hits = outcomes[1:]
    assert all(o.cached for o in hits)
    assert all(o.rounds == 0 and o.messages == 0 for o in hits)
    assert all(o.values == outcomes[0].values for o in hits)
    exposure_after_first = {
        owner: cache_fed.ledger.exposure(owner) for owner in PARTIES
    }
    # One more wave of repeats: the ledger must not move at all.
    start = time.perf_counter()
    cache_fed.execute_many_settled(repeated)
    repeat_wall = time.perf_counter() - start
    for owner in PARTIES:
        assert cache_fed.ledger.exposure(owner) == exposure_after_first[owner]
    assert cache_fed.cache.hits == 2 * CACHE_REPEATS - 1

    emit(
        "federation_throughput",
        f"{BATCH_QUERIES} distinct ranking statements over 5 parties: one "
        "execute_many_settled batch vs one execute() per statement, each pass "
        f"on a fresh federation, {WALL_PASSES} passes per side interleaved in one "
        "process, fastest pass of each; values, rounds and ledger exposure "
        "asserted identical first.  Cache rows: one statement repeated "
        f"{CACHE_REPEATS} times twice over; the second wave is timed.  The sim "
        "rows are the cost model's seconds for the same two runs (max over the "
        "batch vs sum over the sequence)",
        [
            row(
                "batch_over_sequential",
                seq_wall / batch_wall,
                "x",
                at_least=MIN_WALL_SPEEDUP,
            ),
            row("batch_queries_per_second", BATCH_QUERIES / batch_wall, "1/s"),
            row("sequential_queries_per_second", BATCH_QUERIES / seq_wall, "1/s"),
            row("cached_queries_per_second", CACHE_REPEATS / repeat_wall, "1/s"),
            row("batch_simulated_seconds", batch_sim, "s", clock="sim"),
            row("sequential_simulated_seconds", seq_sim, "s", clock="sim"),
            row("cache_hits", cache_fed.cache.hits, "hits", clock="count"),
            row("cache_misses", cache_fed.cache.misses, "misses", clock="count"),
        ],
    )
