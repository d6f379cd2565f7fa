#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, six workloads.

    python3 bench/run.py --seed 1                    # all workloads, end to end
    python3 bench/run.py --seed 1 --workload cold_ring
    python3 bench/run.py --seed 1 --traced           # + per-layer attribution
    python3 bench/run.py --smoke                     # ~1/50 scale, all of it

The driver's form, one workload per process, prints one JSON object as the
last line of standard output:

    python3 bench/run.py --workload hot_repeat --seed 3 --seconds 10 --trace 0

Builds each workload from the seed, drives the program only through its
public API, checks every answer against an oracle and prints every metric by
name with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402
from repro.core.sampling import prefix_cache_clear  # noqa: E402

OUT = BENCH / "out"
#: The traced run makes up to four passes (untraced base, traced, product
#: tracer, LocalShard twin); each gets this share of the untraced run's stream.
TRACED_SCALE = 0.3
SMOKE_SCALE = 0.02
#: Safety stop for one phase, as a multiple of ``--seconds``.
MAX_WALL_FACTOR = 4.0


# -- gateway workloads --------------------------------------------------------------


def _verify(instance, phases) -> None:
    """Replay every record through the oracle, in stream order.

    ``scan_write`` has one client, so stream order is serve order and each
    insert is folded into the expected answers exactly where it happened.
    """
    oracle = instance.oracle
    for phase in phases:
        for index, _began, _ended, outcome in sorted(phase.records, key=lambda r: r[0]):
            write = instance.writes.get(index)
            if write is not None:
                _database, table, row = write
                for column in workloads.SCAN_COLUMNS:
                    oracle.truths[(table, column)].add(row[column])
            oracle.check(instance.statements[index], outcome)
    gate = getattr(instance.target, "dp_gate", None)
    if gate is not None and (oracle.dp_charged or oracle.dp_free):
        oracle.check_dp_spend(gate.snapshot())


def _lop_mean(instance) -> "float | None":
    values = [
        entry.average_lop
        for federation in instance.federations
        for entry in federation.audit
        if entry.average_lop is not None and not entry.cached
    ]
    return sum(values) / len(values) if values else None


def _user_metrics(instance, warmup, timed) -> dict:
    """End-to-end and user-visible metrics of one untraced pass."""
    oracle = instance.oracle
    pids = instance.worker_pids()
    served = [r for r in timed.records if not isinstance(r[3], BaseException)]
    hits = [r[2] - r[1] for r in served if r[3].cached]
    misses = [r[2] - r[1] for r in served if not r[3].cached]
    attempted = len(warmup.records) + len(timed.records)
    values = {
        "setup_s": min(instance.setup_times),
        "queries_per_s": len(served) / timed.wall_s,
        "cpu_us_per_op": timed.cpu_s / max(1, len(served)) * 1e6,
        "peak_rss_mb": harness.peak_rss_mb(pids),
        "precision": oracle.precision,
        "failed_frac": oracle.failed / attempted,
        "lop_mean": _lop_mean(instance),
        "sim_s": sum(r[3].simulated_seconds for r in served),
    }
    samples = {}
    # hot_repeat has no timed misses at all, cold_ring too few hits for a p90.
    for prefix, latencies, unit, scale in (
        ("hit", hits, "us", 1e6), ("miss", misses, "ms", 1e3),
    ):
        summary = harness.latency_summary(latencies, scale)
        samples[prefix] = summary.pop("n")
        for percentile, value in summary.items():
            values[f"{prefix}_{percentile}_{unit}"] = value
    if timed.writes:
        durations = [ended - began for _i, began, ended in timed.writes]
        values["write_p50_us"] = harness.percentile(durations, 0.5) * 1e6
        samples["write"] = len(durations)
    return {
        "values": {k: v for k, v in values.items() if v is not None},
        "samples": samples,
        "attempted": attempted,
    }


def _gateway_pass(name, seed, seconds, scale, *, full_setup=False, recorder=None,
                  tracer=None, builder=None):
    """Build, serve, verify, close; returns the facts of one pass."""
    prefix_cache_clear()  # every pass starts from the program's cold state
    build = builder or workloads.BUILDERS[name]
    instance = build(seed, seconds, scale, full_setup=full_setup)
    try:
        on_timed = recorder.install if recorder is not None else None
        try:
            warmup, timed, service = harness.serve(
                instance, tracer=tracer, on_timed=on_timed,
                max_wall_s=max(20.0, seconds * MAX_WALL_FACTOR),
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        _verify(instance, (warmup, timed))
        facts = _user_metrics(instance, warmup, timed)
        facts.update(
            instance=instance, timed=timed, service=service,
            failed=instance.oracle.failed,
            failures_by_type=dict(instance.oracle.failures_by_type),
            mismatches=list(instance.oracle.mismatches),
            truncated=warmup.truncated or timed.truncated,
            phases={
                "setup_s": instance.setup_times,
                "warmup": {"ops": len(warmup.records)},
                "timed": {"wall_s": timed.wall_s, "cpu_s": timed.cpu_s,
                          "ops": len(timed.records)},
            },
            clients=instance.clients,
        )
    finally:
        instance.close()
        gc.collect()
    if full_setup:
        workloads.setup_again(instance)
        facts["values"]["setup_s"] = min(instance.setup_times)
    return facts


def run_gateway(name, seed, seconds, scale, trace) -> tuple:
    if not trace:
        facts = _gateway_pass(name, seed, seconds, scale, full_setup=scale >= 1.0)
        return _result(name, seed, seconds, scale, trace, facts, facts["values"])

    scale *= TRACED_SCALE
    base = _gateway_pass(name, seed, seconds, scale)
    recorder = sp.Recorder()
    traced = _gateway_pass(name, seed, seconds, scale, recorder=recorder)
    table = layers.SpanTable(recorder)
    problems = sp.check_tree(table.spans, table.selfs)
    # User-visible metrics come from the untraced base pass; the end-to-end
    # ones are the untraced run's business.
    values = {
        key: value for key, value in base["values"].items()
        if key not in catalog.END_TO_END_NAMES
    }
    values.update(layers.gateway_metrics(
        table, traced["instance"], traced["timed"], traced["service"]))
    values.update(layers.share_metrics(table, traced["timed"].wall_s))
    base_qps = base["values"]["queries_per_s"]
    values["bench.trace_overhead_ratio"] = traced["values"]["queries_per_s"] / base_qps
    passes = {"untraced": base, "traced": traced}
    if name in catalog.BY_NAME["observability.tracer_on_ratio"].on:
        from repro.observability.trace import TraceRecorder

        product = _gateway_pass(name, seed, seconds, scale, tracer=TraceRecorder())
        values["observability.tracer_on_ratio"] = (
            product["values"]["queries_per_s"] / base_qps
        )
        passes["product_tracer"] = product
    if name == "sharded_proc":
        # Only the shard boundary is wrapped, as in the worker processes, whose
        # insides cannot be: wrappers inside the twin's shards would be
        # counted as time the wire saves.
        twin_recorder = sp.Recorder(layers=("sharding",))
        twin = _gateway_pass(
            name, seed, seconds, scale, recorder=twin_recorder,
            builder=partial(workloads.build_sharded_proc, processes=False),
        )
        twin_table = layers.SpanTable(twin_recorder)
        values["sharding.wire_us_per_stmt"] = layers.wire_us_per_stmt(table, twin_table)
        values.update(layers.codec_probe(twin_table))
        passes["local_twin"] = twin
    facts = dict(
        traced,
        failed=sum(p["failed"] for p in passes.values()),
        attempted=sum(p["attempted"] for p in passes.values()),
        mismatches=[m for p in passes.values() for m in p["mismatches"]] + problems,
        truncated=any(p["truncated"] for p in passes.values()),
        span_problems=problems,
        spans=table.spans,
        phases={label: p["phases"] for label, p in passes.items()},
    )
    return _result(name, seed, seconds, scale, trace, facts, values)


# -- paper_figures ------------------------------------------------------------------------


def _figures_pass(scale: float, recorder=None) -> dict:
    """Regenerate the figure set once; byte-compare with the goldens at scale 1."""
    from repro.experiments.figures import registry
    from repro.experiments.report import write_csv

    prefix_cache_clear()  # every pass starts from the program's cold state
    golden = scale == 1.0
    mismatches, per_figure, csvs, panels_by_id = [], {}, {}, {}
    trials_total, wall_total = 0, 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for figure, full_trials, compare in workloads.FIGURES:
            trials = full_trials if golden else max(5, int(full_trials * scale))
            span = (recorder.span("experiments.run_experiment", qid=figure)
                    if recorder is not None else nullcontext())
            began = time.perf_counter()
            with span:
                panels = registry.run_experiment(
                    figure, trials=trials, seed=workloads.FIGURE_SEED, jobs=1,
                    timing=True)
            wall = time.perf_counter() - began
            ran = int(panels[0].metadata["timing"]["trials"])
            per_figure[figure] = {"trials": ran, "wall_s": wall}
            trials_total += ran
            wall_total += wall
            produced = write_csv(panels, Path(scratch) / f"{figure}.csv").read_bytes()
            csvs[figure] = produced
            panels_by_id[figure] = panels
            if golden and compare:
                if produced != (ROOT / "results" / f"{figure}.csv").read_bytes():
                    mismatches.append(f"{figure}.csv differs from results/{figure}.csv")
    for panel in panels_by_id["fig8"]:
        for series in panel.series:
            ys = [y for _x, y in series.points]
            # LoP non-increasing in n, within sampling noise of few trials.
            if ys[-1] > ys[0]:
                mismatches.append(
                    f"{panel.figure_id} {series.label}: LoP rises with n ({ys})")
    final_precision = [
        series.points[-1][1]
        for panel in panels_by_id["fig6"] for series in panel.series
    ]
    fig8_lop = [
        y for panel in panels_by_id["fig8"] for s in panel.series for _x, y in s.points
    ]
    return {
        "trials": trials_total, "wall_s": wall_total,
        "per_figure": per_figure,
        "mismatches": mismatches, "csvs": csvs,
        "precision": sum(final_precision) / len(final_precision),
        "lop_mean": sum(fig8_lop) / len(fig8_lop),
    }


def _import_seconds(full: bool) -> list:
    """Set-up on the researcher's path is a fresh interpreter importing the
    experiment registry: what ``repro-topk figure`` pays before its first
    trial."""
    def import_registry():
        # No ``timeout=``: with one, ``subprocess`` polls for the child's exit
        # in steps of up to 50 ms, and the measured time comes in those steps.
        return subprocess.run(
            [sys.executable, "-c", "import repro.experiments.figures.registry"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
        )

    return workloads.timed_setup(import_registry, full)[1]


def run_figures(seed, seconds, scale, trace) -> tuple:
    """``--seed`` and ``--seconds`` cannot vary the inputs here: the goldens
    fix seed 0 and 100 trials."""
    OUT.mkdir(exist_ok=True)
    smoke = scale < 1.0
    if trace:
        scale *= TRACED_SCALE
    setup_times = _import_seconds(full=scale >= 1.0)
    cpu0 = harness.cpu_seconds()
    first = _figures_pass(scale)
    cpu_s = harness.cpu_seconds() - cpu0
    if not trace and not smoke:
        setup_times += _import_seconds(full=True)  # as workloads.setup_again
    attempted = len(workloads.FIGURES)
    facts = {
        "attempted": attempted,
        "failed": len(first["mismatches"]),
        "failures_by_type": (
            {"OracleMismatch": len(first["mismatches"])} if first["mismatches"] else {}
        ),
        "mismatches": first["mismatches"],
        "truncated": False,
        "clients": 1,
        "samples": {},
        "phases": {
            "setup_s": setup_times,
            "timed": {"wall_s": first["wall_s"], "cpu_s": cpu_s, "ops": first["trials"]},
            "per_figure": first["per_figure"],
        },
    }
    rate = first["trials"] / first["wall_s"]
    values = {
        "queries_per_s": rate,
        "trials_per_s": rate,
        "cpu_us_per_op": cpu_s / first["trials"] * 1e6,
        "failed_frac": facts["failed"] / attempted,
        "lop_mean": first["lop_mean"],
    }
    if not trace:
        values.update({
            "setup_s": min(setup_times),
            "peak_rss_mb": harness.peak_rss_mb(),
            "precision": first["precision"],
        })
        return _result("paper_figures", seed, seconds, scale, trace, facts, values)

    recorder = sp.Recorder()
    with recorder.installed():
        traced = _figures_pass(scale, recorder)
    if traced["csvs"] != first["csvs"]:
        facts["mismatches"].append("tracing changed a figure's CSV bytes")
        facts["failed"] += 1
    table = layers.SpanTable(recorder)
    problems = sp.check_tree(table.spans, table.selfs)
    values.update(layers.figures_metrics(table, traced["trials"]))
    values.update(layers.share_metrics(table, traced["wall_s"]))
    values["bench.trace_overhead_ratio"] = (traced["trials"] / traced["wall_s"]) / rate
    values.update(layers.core_probe(seed, 32 if smoke else 256))
    values.update(layers.deploy_probe(seed, 2 if smoke else 5))
    facts["mismatches"] = facts["mismatches"] + problems
    facts["span_problems"] = problems
    facts["spans"] = table.spans
    facts["phases"]["traced"] = {"wall_s": traced["wall_s"], "ops": traced["trials"]}
    return _result("paper_figures", seed, seconds, scale, trace, facts, values)


# -- results --------------------------------------------------------------------------------


def _result(name, seed, seconds, scale, trace, facts, values) -> tuple:
    """One workload's result document (also what goes to bench/out/), and
    the traced run's spans beside it.

    Untraced: every end-to-end metric plus the user-visible ones this
    workload has.  Traced: every per-layer metric; one this workload never
    exercised reads 0 (the driver wants each name on every workload).
    """
    def put(metric, value) -> None:
        metrics[metric.name] = {"value": float(value), "unit": metric.unit}

    metrics = {}
    if trace:
        for metric in catalog.USER_VISIBLE:
            put(metric, values.get(metric.name, 0.0) if name in metric.on else 0.0)
        # ``on`` of a per-layer metric says where it is predicted to matter;
        # it is reported wherever it was measured.
        for metric in catalog.PER_LAYER + catalog.SHARES:
            put(metric, values.get(metric.name, 0.0))
    else:
        for metric in catalog.END_TO_END:
            put(metric, values[metric.name])
        for metric in catalog.USER_VISIBLE:
            if name in metric.on and metric.name in values:
                put(metric, values[metric.name])
    span_problems = facts.get("span_problems", [])
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "workload": name,
        "why": catalog.WORKLOADS[name],
        "trace": int(trace),
        "correct": facts["failed"] == 0 and not span_problems and finite
        and not facts["truncated"],
        "attempted": int(facts["attempted"]),
        "failed": int(facts["failed"]),
        "failures_by_type": facts["failures_by_type"],
        "mismatches": facts["mismatches"][:20],
        "truncated": facts["truncated"],
        "metrics": metrics,
        "methodology": {
            "seed": seed, "seconds": seconds, "scale": scale,
            "clients": facts["clients"], "loop": "closed",
            "warmup_share": workloads.WARMUP_SHARE,
            # Sample count behind each percentile.
            "samples": facts.get("samples", {}),
            # Raw per-phase wall and CPU.
            "phases": facts["phases"],
            **({"spans": _span_counts(facts)} if trace else {}),
        },
    }, facts.get("spans")


def _span_counts(facts) -> dict:
    spans = facts["spans"]
    return {
        "count": len(spans),
        "roots": sum(1 for span in spans if span[sp.NAME] == sp.ROOT),
        "problems": facts["span_problems"],
    }


def run_workload(name, seed, seconds, scale, trace) -> dict:
    """Run one workload in this process; writes its result file, and the
    traced run's spans beside it, to bench/out/."""
    environment = harness.environment(seed)
    if name == "paper_figures":
        result, spans = run_figures(seed, seconds, scale, trace)
    else:
        result, spans = run_gateway(name, seed, seconds, scale, trace)
    result["env"] = environment
    OUT.mkdir(exist_ok=True)
    (OUT / f"{_stem(name, seed, trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    if spans is not None:
        sp.dump(spans, spans_path(name, seed))
    return result


def spans_path(name, seed) -> Path:
    return OUT / f"{name}-seed{seed}-spans.jsonl.gz"


def _stem(name, seed, trace) -> str:
    return f"{name}-seed{seed}-{'traced' if trace else 'e2e'}"


def driver_line(result: dict) -> str:
    """The contract's last line: exactly correct, attempted, failed, metrics."""
    wanted = catalog.TRACED if result["trace"] else catalog.END_TO_END
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: result["metrics"][m.name] for m in wanted},
    })


def print_table(result: dict) -> None:
    noisy = "  [noisy: load above nproc]" if result["env"]["noisy"] else ""
    print(f"\n== {result['workload']} seed={result['methodology']['seed']} "
          f"trace={result['trace']} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}{noisy}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
    for line in result["mismatches"][:5]:
        print(f"  ! {line}")


def _run_all(args, names, traces) -> int:
    """The human form: one child process per workload and run, so every
    workload's peak memory and CPU are its own."""
    results = []
    for _ in range(args.repeat):
        for name in names:
            for trace in traces:
                command = [
                    sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(int(trace)),
                ]
                if args.smoke:
                    command.append("--smoke")
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if child.returncode != 0:
                    print(child.stdout, end="")
                    print(f"bench/run.py: {name} exited with {child.returncode}",
                          file=sys.stderr)
                    return child.returncode
                result = json.loads(
                    (OUT / f"{_stem(name, args.seed, trace)}.json").read_text())
                results.append(result)
                print_table(result)
    merged = Path(args.out) if args.out else (
        OUT / f"run-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    merged.write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"\nwrote {merged}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.ALL,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS),
                        help="sizes the fixed work of one run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="after the end-to-end run, repeat each workload traced")
    parser.add_argument("--smoke", action="store_true",
                        help=f"~{SMOKE_SCALE:g} scale; without --trace, both runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload in one result file, for compare.py")
    parser.add_argument("--out", help="result file (default bench/out/run-seed<S>.json)")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = run_workload(
            args.workload, args.seed, args.seconds,
            SMOKE_SCALE if args.smoke else 1.0, bool(args.trace))
        print_table(result)
        # The driver reads ``correct`` from the line; the exit code only says
        # that a result was produced.
        print(driver_line(result))
        return 0
    names = [args.workload] if args.workload else list(catalog.ALL)
    traces = [False, True] if (args.traced or args.smoke) else [False]
    OUT.mkdir(exist_ok=True)
    return _run_all(args, names, traces)


if __name__ == "__main__":
    sys.exit(main())
