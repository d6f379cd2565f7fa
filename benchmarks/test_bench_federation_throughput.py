"""Bench: federated query throughput — pipelined batches and the result cache.

The throughput engine's two claims, measured end to end through
``Federation.execute_many``:

* **Pipelining**: a batch of Q independent ranking queries interleaves its
  ring tokens on one shared transport and completes in simulated time close
  to the slowest query — asserted >= 2x faster than the sum of sequential
  runs (measured: ~Q x, since same-shape queries take near-equal time).
  That is the *model's* clock.  On the wall clock a batch of 8 is below the
  vectorized engine's crossover, so both sides run the scalar kernel and the
  expectation is parity within noise, not a win: ``wall_speedup_vs_
  sequential`` is reported beside the simulated figure and floored at
  ``MIN_WALL_SPEEDUP`` (the batch path must not cost more than serving the
  statements one at a time, as it did when it paid for the engine at B=8).
* **Result cache**: repeats of an answered statement are O(1) lookups —
  zero protocol rounds, zero messages, zero new ledger exposure.

Emits ``results/BENCH_federation_throughput.json`` with queries/sec, both
speedups vs sequential, the cache hit rate, and the regression floors
embedded under ``"floors"`` (consumed by ``scripts/check_bench_floors.py``).
"""

import json
import time
from pathlib import Path

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
MIN_SIMULATED_SPEEDUP = 2.0
MIN_WALL_SPEEDUP = 0.8
MIN_CACHE_HIT_RATE = 0.9
RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_federation_throughput.json"
)

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
        batch = batch_fed.execute_many(STATEMENTS)
        batch_wall = min(batch_wall, time.perf_counter() - start)
    seq_sim = sum(o.simulated_seconds for o in sequential)
    batch_sim = max(o.simulated_seconds for o in batch)

    # Parity first: the speedup must not come from computing something else.
    for b, s in zip(batch, sequential):
        assert b.values == s.values
        assert b.rounds == s.rounds
    for owner in PARTIES:
        assert batch_fed.ledger.exposure(owner) == seq_fed.ledger.exposure(owner)

    speedup = seq_sim / batch_sim
    assert speedup >= MIN_SIMULATED_SPEEDUP, (
        f"pipelined batch of {BATCH_QUERIES} only {speedup:.2f}x faster than "
        f"sequential in simulated time (expected >= {MIN_SIMULATED_SPEEDUP}x)"
    )
    wall_speedup = seq_wall / batch_wall
    assert wall_speedup >= MIN_WALL_SPEEDUP, (
        f"batch of {BATCH_QUERIES} took {batch_wall * 1e3:.1f} ms on the wall "
        f"against {seq_wall * 1e3:.1f} ms one at a time ({wall_speedup:.2f}x; "
        f"expected >= {MIN_WALL_SPEEDUP}x)"
    )

    # -- cache: repeats are O(1), zero protocol, zero new exposure ---------
    cache_fed = fresh_federation()
    repeated = [STATEMENTS[0]] * CACHE_REPEATS
    outcomes = cache_fed.execute_many(repeated)
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
    cache_fed.execute_many(repeated)
    repeat_wall = time.perf_counter() - start
    for owner in PARTIES:
        assert cache_fed.ledger.exposure(owner) == exposure_after_first[owner]
    hit_rate = cache_fed.cache.hit_rate
    assert cache_fed.cache.hits == 2 * CACHE_REPEATS - 1
    assert hit_rate >= MIN_CACHE_HIT_RATE

    payload = {
        "seed": BENCH_SEED,
        "batch_queries": BATCH_QUERIES,
        "sequential_simulated_seconds": seq_sim,
        "batch_simulated_seconds": batch_sim,
        "speedup_vs_sequential": speedup,
        "sequential_wall_seconds": seq_wall,
        "batch_wall_seconds": batch_wall,
        "wall_speedup_vs_sequential": wall_speedup,
        "wall_passes": WALL_PASSES,
        "queries_per_second_wall": BATCH_QUERIES / batch_wall,
        "cached_queries_per_second_wall": CACHE_REPEATS / repeat_wall,
        "cache_hit_rate": hit_rate,
        "cache_hits": cache_fed.cache.hits,
        "cache_misses": cache_fed.cache.misses,
        "floors": {
            "min_speedup_vs_sequential": MIN_SIMULATED_SPEEDUP,
            "min_wall_speedup_vs_sequential": MIN_WALL_SPEEDUP,
            "min_cache_hit_rate": MIN_CACHE_HIT_RATE,
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nbatch of {BATCH_QUERIES}: simulated {batch_sim:.3f}s vs sequential "
        f"{seq_sim:.3f}s ({speedup:.2f}x), wall {batch_wall * 1e3:.1f} ms vs "
        f"{seq_wall * 1e3:.1f} ms ({wall_speedup:.2f}x); cache hit rate "
        f"{hit_rate:.2%}; wrote {RESULTS_PATH.name}"
    )
