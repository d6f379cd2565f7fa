"""Bench: 100k-query gateway soak — sharded federations vs one federation.

The same 12 parties serve the same 100,000-statement stream twice through
the multi-tenant gateway —

* **flat**: one federation over all 12 parties, and
* **sharded**: 4 in-process federations of 3 parties each behind
  :class:`~repro.sharding.ShardedFederation` (statements route to the
  shard owning their table; partitioned tables fan out and merge).

Exactness is asserted before speed: every one of the 100k served answers
must be bit-identical between the two deployments — the order-preserving
merge argument of docs/SHARDING.md, checked on every statement of the
soak, cache hits and fan-outs included.

The headline is **wall-clock queries per second of both deployments** and
their ratio.  In-process sharding *loses* on the wall today: 99.8 % of the
stream is cache hits, and a sharded hit pays routing on top of the lookup
(ROADMAP item 3 is the work that should raise it).  The floor on the ratio
is therefore a guard against collapse, not a claim of a win: the lowest of
fourteen alternating flat/sharded pairs measured on the reference box
(0.586), rounded down to one decimal (``results/NOTES_gateway_soak.md`` has
the pairs).  The
cost model prices a 3-party ring at a quarter of a 12-party one, so the
simulated clocks differ by exactly 4.0 — an identity of the model, recorded
as a ``sim`` row and pinned exactly by
``tests/sharding/test_sharded_identity.py``, never floored here.

Emits ``results/BENCH_gateway_soak.json`` (floor on the row, checked by
``scripts/check_bench_floors.py``).  ``bench/`` has a flat workload
(``hot_repeat``) and sharded ones (``slo_dp``, ``sharded_proc``) but over
different streams and topologies, so it cannot state this ratio.
"""

import asyncio
import gc
import time

from benchdoc import emit, row
from repro.service import QueryService
from repro.sharding import (
    build_topology,
    sharded_federation,
    single_federation,
    topology_workload,
)

from conftest import BENCH_SEED

SOAK_QUERIES = 100_000
SHARDS = 4
PARTIES_PER_SHARD = 3  # 4 shards x 3 parties == the 12-party baseline
REPEAT_FRACTION = 0.9  # a soak is mostly repeats: the cache fast path
SUBMIT_CHUNK = 256  # stay under max_queue so nothing sheds

#: Guard against collapse on sharded wall q/s over flat wall q/s (see the
#: module docstring for how it was set): fourteen alternating pairs on the
#: reference box read 0.59x .. 0.92x, median 0.76x.
WALL_RATIO_FLOOR = 0.5


def serve_soak(federation, statements):
    """Serve the stream through a gateway in bounded chunks; no sheds.

    Returns the service, every answer's values and the wall seconds.  Each
    pass starts from a collected heap and hands back bare value tuples, so
    neither side is timed with the other's 100k outcome objects still alive
    (the collector's full passes scale with the live heap).
    """
    service = QueryService(federation, max_queue=512, max_batch=32)

    async def scenario():
        results = []
        async with service:
            for start in range(0, len(statements), SUBMIT_CHUNK):
                chunk = statements[start : start + SUBMIT_CHUNK]
                results.extend(
                    await service.submit_many(chunk, return_exceptions=True)
                )
        return results

    gc.collect()
    start = time.perf_counter()
    results = asyncio.run(scenario())
    wall = time.perf_counter() - start
    refused = [r for r in results if isinstance(r, BaseException)]
    assert not refused, f"{len(refused)} statements refused, first {refused[0]!r}"
    return service, [outcome.values for outcome in results], wall


def test_bench_gateway_soak():
    topology = build_topology(
        shards=SHARDS,
        parties_per_shard=PARTIES_PER_SHARD,
        tables=8,
        rows_per_table=40,
        partitioned=1,
        seed=BENCH_SEED,
    )
    statements = topology_workload(
        topology, SOAK_QUERIES, seed=BENCH_SEED, repeat_fraction=REPEAT_FRACTION
    )

    flat_service, flat_values, flat_wall = serve_soak(
        single_federation(topology), statements
    )
    shard_service, shard_values, shard_wall = serve_soak(
        sharded_federation(topology), statements
    )
    # -- exactness before speed: every answer bit-identical ----------------
    assert len(flat_values) == len(shard_values) == SOAK_QUERIES
    for index, (flat, sharded) in enumerate(zip(flat_values, shard_values)):
        assert sharded == flat, (
            f"statement {index} ({statements[index]!r}) diverged: "
            f"sharded {sharded} vs flat {flat}"
        )

    # A second pass in the opposite order, timed only: the fastest pass of
    # each side is compared (machine noise only ever slows a pass down).
    *_, again = serve_soak(sharded_federation(topology), statements)
    shard_wall = min(shard_wall, again)
    *_, again = serve_soak(single_federation(topology), statements)
    flat_wall = min(flat_wall, again)

    flat_snapshot = flat_service.metrics_snapshot()
    shard_snapshot = shard_service.metrics_snapshot()
    assert flat_snapshot["shed"] == 0 and shard_snapshot["shed"] == 0

    flat_sim = flat_service.clock.now()
    shard_sim = shard_service.clock.now()
    emit(
        "gateway_soak",
        f"{SOAK_QUERIES} statements ({REPEAT_FRACTION:.0%} repeats, seed "
        f"{BENCH_SEED}) over 8 tables, one partitioned, through QueryService "
        f"(max_queue=512, max_batch=32, chunks of {SUBMIT_CHUNK}); flat = one "
        f"{SHARDS * PARTIES_PER_SHARD}-party federation, sharded = {SHARDS} "
        f"in-process shards of {PARTIES_PER_SHARD}; two passes per side in one "
        "process in the order flat, sharded, sharded, flat, wall time around "
        "asyncio.run, fastest pass of each side; all answers of the first "
        "pair compared bit for bit before any number is reported.  The ratio "
        "floor is a guard against collapse (lowest of fourteen alternating "
        "single-pass pairs, rounded down to one decimal); simulated_speedup "
        "is the cost model's ring-size ratio, exact by construction",
        [
            row(
                "sharded_over_flat_queries_per_second",
                flat_wall / shard_wall,
                "x",
                at_least=WALL_RATIO_FLOOR,
            ),
            row("flat_queries_per_second", SOAK_QUERIES / flat_wall, "1/s"),
            row("sharded_queries_per_second", SOAK_QUERIES / shard_wall, "1/s"),
            row("flat_simulated_seconds", flat_sim, "s", clock="sim"),
            row("sharded_simulated_seconds", shard_sim, "s", clock="sim"),
            row("simulated_speedup", flat_sim / shard_sim, "x", clock="sim"),
            row(
                "sharded_cache_fast_hits",
                shard_snapshot["cache_fast_hits"],
                "hits",
                clock="count",
            ),
            row(
                "fanout_statements",
                shard_snapshot["sharding"]["fanout_statements"],
                "statements",
                clock="count",
            ),
        ],
    )
