#!/usr/bin/env python3
"""Nightly chaos sweep: lossy links, then real party-process kills.

Stage one sweeps simulated lossy links: for every drop probability, run
several transport-simulated queries with a
:class:`~repro.network.failures.FailureInjector` on the wire and
distributed tracing enabled.  A run fails if the protocol raises or
returns anything other than the exact top-k.

Stage two is not simulated: it forks real shard worker *processes*
(:mod:`repro.sharding.worker`), SIGKILLs one mid-stream, and drives the
sharded gateway federation across the corpse.  The contract is typed
degradation — statements routed to the dead shard must settle as
:class:`~repro.sharding.ShardUnavailable` refusals, statements on the
surviving shards must keep returning exact answers, and nothing may hang
(the stage is wall-clock bounded).

On failure the offending run's trace is exported (JSONL + Chrome) so the
flight recorder rides along with the bug report; a machine-readable
summary is always written.

Run from the repository root::

    PYTHONPATH=src python scripts/chaos_sweep.py --out-dir results/chaos
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.driver import RunConfig, run_protocol_on_vectors  # noqa: E402
from repro.database.generator import DataGenerator  # noqa: E402
from repro.database.query import TopKQuery  # noqa: E402
from repro.network.failures import FailureInjector  # noqa: E402
from repro.observability import TraceRecorder, tracing  # noqa: E402


def run_once(
    *, drop: float, trial: int, nodes: int, k: int, seed: int
) -> tuple[bool, str, TraceRecorder]:
    """One traced lossy run; (ok, detail, recorder)."""
    recorder = TraceRecorder()
    run_seed = seed + trial
    generator = DataGenerator(rng=random.Random(run_seed))
    datasets = generator.node_datasets(nodes, 12)
    vectors = {f"node{i}": [float(v) for v in vs] for i, vs in enumerate(datasets)}
    query = TopKQuery(table="data", attribute="value", k=k)
    injector = FailureInjector(
        drop_probability=drop, rng=random.Random(run_seed + 1000)
    )
    config = RunConfig(protocol="probabilistic", seed=run_seed, failures=injector)
    try:
        with tracing(recorder):
            result = run_protocol_on_vectors(vectors, query, config)
    except Exception as exc:  # noqa: BLE001 — any escape is the finding
        return False, f"raised {type(exc).__name__}: {exc}", recorder
    if list(result.answer()) != list(result.true_topk()):
        return (
            False,
            f"wrong answer {result.answer()} != {result.true_topk()}",
            recorder,
        )
    return True, f"ok in {result.rounds_executed} rounds", recorder


def run_process_kill_stage(
    *, seed: int, budget_seconds: float = 120.0
) -> list[dict]:
    """SIGKILL a real shard worker mid-stream; assert typed degradation.

    Returns one record per check; ``ok=False`` records carry the finding.
    """
    from repro.federation.coordinator import QueryRefused
    from repro.sharding import (
        ShardUnavailable,
        build_topology,
        sharded_federation,
        single_federation,
        topology_workload,
    )

    records: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        records.append(
            {"stage": "process-kill", "check": name, "ok": ok, "detail": detail}
        )
        print(f"{'ok  ' if ok else 'FAIL'} process-kill {name}: {detail}")

    topology = build_topology(
        shards=3, parties_per_shard=3, tables=6, rows_per_table=24,
        partitioned=1, seed=seed,
    )
    oracle = single_federation(topology)
    statements = topology_workload(topology, 30, seed=seed + 1)
    expected = oracle.execute_many_settled(statements, issuer="chaos")

    started = time.monotonic()
    federation = sharded_federation(topology, processes=True)
    try:
        victim = 1
        before = federation.execute_many_settled(statements, issuer="chaos")
        clean = sum(
            1
            for want, got in zip(expected, before)
            if not isinstance(got, QueryRefused) and got.values == want.values
        )
        check(
            "pre-kill parity",
            clean == len(statements),
            f"{clean}/{len(statements)} statements exact before the kill",
        )

        federation.shards[victim].kill()  # SIGKILL, mid-session
        after = federation.execute_many_settled(statements, issuer="chaos")
        elapsed = time.monotonic() - started
        refused = [r for r in after if isinstance(r, QueryRefused)]
        served = [r for r in after if not isinstance(r, QueryRefused)]
        typed = all(isinstance(r.error, ShardUnavailable) for r in refused)
        check(
            "typed refusals",
            bool(refused) and typed,
            f"{len(refused)} refusals, all ShardUnavailable: {typed}",
        )
        survivors_exact = all(
            got.values == want.values
            for want, got in zip(expected, after)
            if not isinstance(got, QueryRefused)
        )
        check(
            "survivors exact",
            bool(served) and survivors_exact,
            f"{len(served)} statements still served exactly by live shards",
        )
        check(
            "no hang",
            elapsed < budget_seconds,
            f"stage finished in {elapsed:.1f}s (budget {budget_seconds:.0f}s)",
        )
    finally:
        federation.close()
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--drops",
        type=str,
        default="0.0,0.05,0.1,0.2",
        help="comma-separated drop probabilities to sweep",
    )
    parser.add_argument("--trials", type=int, default=5, help="runs per probability")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=Path("results/chaos"))
    parser.add_argument(
        "--skip-process-kill",
        action="store_true",
        help="run only the lossy-link stage (no worker subprocesses)",
    )
    args = parser.parse_args(argv)

    drops = [float(d) for d in args.drops.split(",") if d.strip()]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[dict] = []
    summary: list[dict] = []
    for drop in drops:
        for trial in range(args.trials):
            ok, detail, recorder = run_once(
                drop=drop, trial=trial, nodes=args.nodes, k=args.k, seed=args.seed
            )
            record = {"drop": drop, "trial": trial, "ok": ok, "detail": detail}
            summary.append(record)
            status = "ok  " if ok else "FAIL"
            print(f"{status} drop={drop:<5} trial={trial} {detail}")
            if not ok:
                stem = args.out_dir / f"fail_drop{drop}_trial{trial}"
                record["trace_jsonl"] = str(
                    recorder.write_jsonl(stem.with_suffix(".jsonl"))
                )
                record["trace_chrome"] = str(
                    recorder.write_chrome(stem.with_suffix(".chrome.json"))
                )
                failures.append(record)
    if not args.skip_process_kill:
        kill_records = run_process_kill_stage(seed=args.seed)
        summary.extend(kill_records)
        failures.extend(r for r in kill_records if not r["ok"])
    summary_path = args.out_dir / "chaos_summary.json"
    summary_path.write_text(
        json.dumps(
            {"runs": summary, "failures": len(failures)}, indent=2, sort_keys=True
        )
        + "\n"
    )
    print(f"wrote {summary_path}")
    if failures:
        print(f"{len(failures)} chaos runs failed; traces exported", file=sys.stderr)
        return 1
    print(f"all {len(summary)} chaos runs survived the sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
