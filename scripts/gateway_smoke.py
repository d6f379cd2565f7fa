#!/usr/bin/env python3
"""CI gateway smoke: a multi-process sharded soak over real sockets.

Forks shard *worker processes* (``repro.sharding.worker``), puts a
:class:`~repro.service.QueryService` gateway in front of them, and
drives a workload through twice — once against one flat federation over
the same parties (the oracle), once against the process shards. The
smoke fails unless:

* every served answer is **bit-identical** between the two deployments
  (fan-outs and cache hits included),
* nothing sheds, and
* the sharded pass is faster on the simulated clock (3 shards of 3
  parties vs one 9-party ring: the ratio must clear 2x -- the cost model's
  arithmetic, a sanity check that statements really ran on the small rings;
  the wall-clock ratio is ``benchmarks/test_bench_gateway_soak.py``'s).

A machine-readable summary (gateway metrics + shard snapshot) is always
written for the CI artifact. Run from the repository root::

    PYTHONPATH=src python scripts/gateway_smoke.py --out results/gateway_smoke.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import QueryService  # noqa: E402
from repro.sharding import (  # noqa: E402
    build_topology,
    sharded_federation,
    single_federation,
    topology_workload,
)

SPEEDUP_FLOOR = 2.0  # 3 shards of 3 parties vs one 9-party ring (~3x)


def serve(federation, statements, *, chunk: int = 128):
    service = QueryService(federation, max_queue=256, max_batch=16)

    async def scenario():
        results = []
        async with service:
            for start in range(0, len(statements), chunk):
                results.extend(
                    await service.submit_many(
                        statements[start : start + chunk],
                        return_exceptions=True,
                    )
                )
        return results

    return service, asyncio.run(scenario())


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=Path("results/gateway_smoke.json")
    )
    args = parser.parse_args(argv)

    topology = build_topology(
        shards=args.shards,
        parties_per_shard=3,
        tables=6,
        rows_per_table=24,
        partitioned=1,
        seed=args.seed,
    )
    statements = topology_workload(
        topology, args.queries, seed=args.seed + 1, repeat_fraction=0.5
    )

    flat_service, flat_results = serve(single_federation(topology), statements)
    sharded = sharded_federation(topology, processes=True)
    try:
        shard_service, shard_results = serve(sharded, statements)
        shard_metrics = shard_service.metrics_snapshot()
    finally:
        sharded.close()

    failures: list[str] = []
    for index, (flat, got) in enumerate(zip(flat_results, shard_results)):
        if isinstance(flat, BaseException) or isinstance(got, BaseException):
            failures.append(
                f"statement {index} refused: flat={flat!r} sharded={got!r}"
            )
        elif got.values != flat.values:
            failures.append(
                f"statement {index} ({statements[index]!r}) diverged: "
                f"{got.values} != {flat.values}"
            )

    flat_metrics = flat_service.metrics_snapshot()
    if flat_metrics["shed"] or shard_metrics["shed"]:
        failures.append(
            f"sheds: flat={flat_metrics['shed']} sharded={shard_metrics['shed']}"
        )
    flat_sim = flat_service.clock.now()
    shard_sim = shard_service.clock.now()
    speedup = flat_sim / shard_sim if shard_sim else 0.0
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"simulated speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )

    summary = {
        "queries": args.queries,
        "shards": args.shards,
        "seed": args.seed,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_sharded_vs_flat": speedup,
        "flat_simulated_seconds": flat_sim,
        "sharded_simulated_seconds": shard_sim,
        "cache_hit_rate_sharded": shard_metrics["cache_hit_rate"],
        "sharding": shard_metrics["sharding"],
        "failures": failures,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print(
        f"ok   {args.queries} queries, {args.shards} worker processes: "
        f"bit-identical, zero sheds, {speedup:.2f}x simulated speedup"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
