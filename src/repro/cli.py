"""Command-line interface: regenerate any of the paper's tables and figures.

Examples::

    repro-topk list
    repro-topk figure fig7 --trials 100 --seed 0
    repro-topk figure fig10 --no-plot --csv results/fig10.csv
    repro-topk all --trials 30 --out results/
    repro-topk query --nodes 10 --k 5 --seed 7
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from .core.driver import PROTOCOLS, RunConfig, run_protocol_on_vectors
from .database.generator import DataGenerator
from .database.query import TopKQuery
from .experiments.figures.registry import (
    EXPERIMENTS,
    all_experiment_ids,
    run_experiment,
)
from .experiments.report import render_figure, write_csv
from .privacy.lop import average_lop, worst_case_lop

import random


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for experiment in EXPERIMENTS.values():
        print(
            f"{experiment.experiment_id:<{width}}  {experiment.paper_artifact:<14} "
            f"[{experiment.kind}] {experiment.description}"
        )
    return 0


@contextmanager
def _timing_scope(enabled: bool) -> Iterator:
    """Collect trial telemetry for ``--timing``; yields None when off.

    Also profiles the kernels' execution phases (setup, ring
    build, round loop, finalize) and the storage engines' node-local
    extraction timings, so ``--timing`` shows where the fast path and the
    data path spend their time alongside the per-sweep-point table.
    """
    if not enabled:
        yield None
        return
    from .experiments import telemetry

    with (
        telemetry.collect() as collector,
        telemetry.profile_phases() as phases,
        telemetry.profile_extraction() as extraction,
    ):
        yield (collector, phases, extraction)


def _print_timing(scope) -> None:
    if scope is None:
        return
    collector, phases, extraction = scope
    print()
    if collector.points:
        print(collector.render())
        print()
        print(phases.render())
    else:
        print("no trial telemetry recorded (analytic artifact, no trials run)")
    if extraction.calls:
        print()
        print(extraction.render())


def _run_one(experiment_id: str, args: argparse.Namespace) -> list:
    outcome = run_experiment(
        experiment_id,
        trials=args.trials,
        seed=args.seed,
        jobs=getattr(args, "jobs", None),
        timing=getattr(args, "timing", False),
    )
    if isinstance(outcome, str):
        print(outcome)
        return []
    for panel in outcome:
        print(render_figure(panel, plot=not args.no_plot))
        print()
    return outcome


def _cmd_figure(args: argparse.Namespace) -> int:
    with _timing_scope(args.timing) as collector:
        panels = _run_one(args.id, args)
    if args.csv and panels:
        path = write_csv(panels, args.csv)
        print(f"wrote {path}")
    if args.svg and panels:
        from .experiments.svg_plot import write_all_svgs

        for path in write_all_svgs(panels, args.svg):
            print(f"wrote {path}")
    _print_timing(collector)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    with _timing_scope(args.timing) as collector:
        for experiment_id in all_experiment_ids():
            print(f"### {experiment_id} ###")
            panels = _run_one(experiment_id, args)
            if panels:
                path = write_csv(panels, out_dir / f"{experiment_id}.csv")
                print(f"wrote {path}")
                if args.svg:
                    from .experiments.svg_plot import write_all_svgs

                    for svg_path in write_all_svgs(panels, out_dir / "svg"):
                        print(f"wrote {svg_path}")
            print()
    _print_timing(collector)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.summary import write_report

    with _timing_scope(args.timing) as collector:
        path = write_report(
            args.out,
            trials=args.trials,
            seed=args.seed,
            include_extensions=not args.paper_only,
            jobs=args.jobs,
            timing=args.timing,
        )
    print(f"wrote {path}")
    _print_timing(collector)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments.validate import render_scorecard, scorecard

    with _timing_scope(args.timing) as collector:
        checks = scorecard(
            trials=args.trials,
            seed=args.seed,
            experiment_ids=args.only,
            jobs=args.jobs,
        )
    print(render_scorecard(checks))
    _print_timing(collector)
    return 0 if all(c.passed for c in checks) else 1


def _export_trace(recorder, args: argparse.Namespace) -> None:
    """Write the distributed-trace exports requested on the command line."""
    open_spans = len(recorder.open_spans())
    suffix = f" ({open_spans} unclosed)" if open_spans else ""
    print(
        f"captured {len(recorder.trace_ids)} trace(s), "
        f"{len(recorder.spans)} spans{suffix}"
    )
    if args.jsonl:
        print(f"wrote {recorder.write_jsonl(args.jsonl)}")
    if args.chrome:
        print(f"wrote {recorder.write_chrome(args.chrome)}")


def _synthetic_job(args: argparse.Namespace):
    """The one seeded ``(local_vectors, query, config)`` job behind the
    ``query``, ``trace`` and ``metrics`` commands."""
    generator = DataGenerator(rng=random.Random(args.seed))
    datasets = generator.node_datasets(args.nodes, args.values_per_node)
    vectors = {f"node{i}": [float(v) for v in vs] for i, vs in enumerate(datasets)}
    query = TopKQuery(table="data", attribute="value", k=args.k)
    return vectors, query, RunConfig(protocol=args.protocol, seed=args.seed)


def _trace_query(args: argparse.Namespace, recorder) -> int:
    from .core.serialization import save_result
    from .observability import tracing

    with tracing(recorder):
        result = run_protocol_on_vectors(*_synthetic_job(args))
    path = save_result(result, args.out)
    print(f"result: {result.answer()}")
    print(f"wrote {path}")
    if args.prom:
        from .observability import MetricsRegistry

        registry = MetricsRegistry()
        registry.absorb_traffic(
            result.stats,
            rounds=result.rounds_executed,
            labels={"protocol": result.protocol},
        )
        print(f"wrote {registry.write_prometheus(args.prom)}")
    return 0


def _trace_figure(args: argparse.Namespace, recorder) -> int:
    from .observability import tracing

    if args.id is None:
        print("trace figure requires an experiment id", file=sys.stderr)
        return 2
    if args.id not in EXPERIMENTS:
        print(
            f"unknown experiment {args.id!r}; see `repro-topk list`",
            file=sys.stderr,
        )
        return 2
    # Tracing is per-process state, so trial execution is forced serial: a
    # worker pool would run trials where the recorder cannot see them.
    with tracing(recorder):
        outcome = run_experiment(
            args.id,
            trials=args.trials,
            seed=args.seed if args.seed is not None else 0,
            jobs=1,
        )
    if isinstance(outcome, str):
        print(outcome)
    else:
        for panel in outcome:
            print(render_figure(panel, plot=False))
            print()
    return 0


def _trace_serve(args: argparse.Namespace, recorder) -> int:
    from .service.workload import mixed_workload

    if args.seed is None:
        args.seed = 0  # the workload and federation want a concrete seed
    statements = mixed_workload(args.queries, seed=args.seed)
    service, _topology = _build_service(args, tracer=recorder)
    results = _serve_workload(service, statements, args)
    errors = sum(1 for r in results if isinstance(r, BaseException))
    print(f"served {len(results) - errors}/{len(results)} statements")
    if args.prom:
        registry = service.export_metrics()
        print(f"wrote {registry.write_prometheus(args.prom)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability import TraceRecorder

    recorder = TraceRecorder(capture_values=args.capture_values)
    handlers = {
        "query": _trace_query,
        "figure": _trace_figure,
        "serve": _trace_serve,
    }
    code = handlers[args.what](args, recorder)
    if code == 0:
        _export_trace(recorder, args)
    return code


def _cmd_metrics(args: argparse.Namespace) -> int:
    """One unified registry across service, protocol, and kernel metrics."""
    from .experiments import telemetry
    from .observability import MetricsRegistry
    from .service.workload import mixed_workload

    registry = MetricsRegistry()

    # Service slice: a mixed workload through the batching gateway.
    statements = mixed_workload(args.queries, seed=args.seed)
    service, _topology = _build_service(args)
    _serve_workload(service, statements, args)
    service.export_metrics(registry)

    # Protocol slice: one query's traffic accounting and, since the
    # executor rule runs it on the kernel, its phase profile.
    with telemetry.profile_phases() as phases:
        result = run_protocol_on_vectors(*_synthetic_job(args))
    registry.absorb_traffic(
        result.stats,
        rounds=result.rounds_executed,
        labels={"protocol": result.protocol},
    )
    registry.absorb_phases(phases)

    print(registry.to_prometheus(), end="")
    if args.prom:
        print(f"wrote {registry.write_prometheus(args.prom)}")
    if args.json:
        print(f"wrote {registry.write_json(args.json)}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.serialization import SerializationError, load_result
    from .privacy.report import privacy_report

    try:
        result = load_result(args.trace)
    except (OSError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"trace             : {args.trace}")
    print(f"result            : {result.answer()}")
    print(f"precision         : {result.precision():.3f}")
    print()
    print(privacy_report(result).render())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.protocol not in PROTOCOLS:
        print(f"unknown protocol {args.protocol!r}; one of {PROTOCOLS}", file=sys.stderr)
        return 2
    result = run_protocol_on_vectors(*_synthetic_job(args))
    print(f"protocol          : {result.protocol}")
    print(f"nodes             : {result.n_nodes}")
    print(f"rounds executed   : {result.rounds_executed}")
    print(f"messages          : {result.stats.messages_total}")
    print(f"top-{args.k:<2} result     : {result.answer()}")
    print(f"ground truth      : {result.true_topk()}")
    print(f"precision         : {result.precision():.3f}")
    print(f"average LoP       : {average_lop(result):.4f}")
    print(f"worst-case LoP    : {worst_case_lop(result):.4f}")
    if args.privacy_report:
        from .privacy.report import privacy_report

        print()
        print(privacy_report(result).render())
    return 0


def _cmd_tpch(args: argparse.Namespace) -> int:
    """Stand up a TPC-H-like federation and answer a price top-k query."""
    import time

    from .core.driver import run_topk_query
    from .database.tpch import TPCH_ATTRIBUTE, lineitem_databases, price_query

    if args.rows is None and args.scale_factor is None:
        args.rows = 100_000
    build_start = time.perf_counter()
    databases = lineitem_databases(
        args.parties,
        seed=args.seed,
        rows_per_party=args.rows,
        scale_factor=args.scale_factor,
        jitter=args.jitter,
        engine=args.engine,
    )
    build_seconds = time.perf_counter() - build_start
    rows_per_party = len(databases[0].table("lineitem"))
    print(
        f"built {args.parties} parties x {rows_per_party} lineitem rows "
        f"on the {args.engine or 'columnar'} engine in {build_seconds:.2f}s"
    )
    tables = [database.table("lineitem") for database in databases]
    if tables[0].nbytes:  # None from an engine that cannot say; 0 when empty
        stored = sum(table.nbytes for table in tables)
        encodings = tables[0]._engine.encodings()
        print(
            f"storage: {stored / 1e6:.1f} MB "
            f"({stored / (args.parties * rows_per_party):.0f} B/row: "
            + ", ".join(f"{name} {how}" for name, how in encodings.items())
            + ")"
        )
    query = price_query(args.k)
    config = RunConfig(protocol=args.protocol, seed=args.seed)
    with _timing_scope(args.timing) as scope:
        query_start = time.perf_counter()
        result = run_topk_query(databases, query, config)
        query_seconds = time.perf_counter() - query_start
    print(f"protocol          : {result.protocol}")
    print(f"rounds executed   : {result.rounds_executed}")
    print(f"top-{args.k:<2} {TPCH_ATTRIBUTE}: {result.answer()}")
    print(f"precision         : {result.precision():.3f}")
    print(f"query wall        : {query_seconds:.3f}s")
    _print_timing(scope)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Plan statements (deterministic explain); optionally execute and audit.

    Exit codes: 0 all plans feasible (and drift within ``--max-drift`` when
    executing), 1 infeasible statements or drift breach, 2 usage errors.
    """
    import json

    from .federation.coordinator import QueryRefused
    from .planner import PlanInfeasible, PredictionLedger, prepare
    from .planner.accuracy import POINT_METRICS
    from .service.workload import synthetic_federation

    statements = _read_statements(args)
    if not statements:
        print("no statements to plan (stdin was empty)", file=sys.stderr)
        return 2
    federation = synthetic_federation(
        parties=args.parties,
        values_per_party=args.values_per_node,
        seed=args.seed,
    )
    exit_code = 0
    plans = []
    for text in statements:
        try:
            # The plan the federation runs the statement on.
            plan = federation.plan_for(prepare(text).spec, args.mode)
        except PlanInfeasible as exc:
            print(f"INFEASIBLE: {text}")
            for reason in exc.reasons:
                print(f"  - {reason}")
            print()
            plans.append(None)
            exit_code = 1
            continue
        except ValueError as exc:  # SqlError / SloError
            print(f"error: {text!r}: {exc}", file=sys.stderr)
            return 2
        print(plan.explain())
        print()
        plans.append(plan)
    artifacts: dict = {
        "plans": [plan.to_dict() if plan is not None else None for plan in plans]
    }
    if args.execute:
        live = [
            (text, plan)
            for text, plan in zip(statements, plans)
            if plan is not None
        ]
        ledger = PredictionLedger()
        settled = federation.execute_many_settled(
            [text for text, _ in live], modes=[args.mode] * len(live)
        )
        for (text, plan), outcome in zip(live, settled):
            if isinstance(outcome, QueryRefused):
                print(f"REFUSED: {text}: {outcome.error}")
                exit_code = 1
                continue
            ledger.record_outcome(plan, outcome)
        snapshot = ledger.snapshot()
        print(f"executed {ledger.recorded} planned statement(s); "
              "predicted vs actual:")
        for metric in POINT_METRICS:
            print(
                f"  {metric:<9}: predicted {snapshot[f'{metric}_predicted']:g}  "
                f"actual {snapshot[f'{metric}_actual']:g}  "
                f"drift {snapshot[f'{metric}_drift']:.4%}"
            )
        print(
            f"  lop      : bound mean {snapshot['lop_mean_bound']:.4f}  "
            f"measured mean {snapshot['lop_mean_measured']:.4f}  "
            f"over {snapshot['lop_checked']} single-extraction run(s)"
        )
        if args.max_drift is not None:
            # The gate covers the point metrics, which are deterministic
            # predictions.  The Eq. 6 LoP column bounds an *expectation*:
            # a handful of single-seed runs cannot soundly accept or
            # reject it, so it is reported above and audited in aggregate
            # by tests/planner and the experiment suite instead.
            over = [
                metric
                for metric in POINT_METRICS
                if ledger.drift(metric) > args.max_drift
            ]
            if over:
                details = ", ".join(
                    f"{metric} drift {ledger.drift(metric):.4%}" for metric in over
                )
                print(f"DRIFT FAIL (> {args.max_drift:.0%}): {details}")
                exit_code = 1
            else:
                print(f"drift checks passed (threshold {args.max_drift:.0%})")
        artifacts["accuracy"] = snapshot
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(artifacts, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return exit_code


def _read_statements(args: argparse.Namespace) -> list[str]:
    """Positional statements, or stdin lines (blank / ``#`` lines skipped)."""
    if args.statements:
        return list(args.statements)
    lines = (line.strip() for line in sys.stdin)
    return [line for line in lines if line and not line.startswith("#")]


def _serve_workload(service, statements: list[str], args: argparse.Namespace):
    """Drive one burst through the gateway; returns settled results."""
    import asyncio

    async def scenario():
        async with service:
            return await service.submit_many(
                statements,
                timeout=getattr(args, "timeout", None),
                return_exceptions=True,
            )

    return asyncio.run(scenario())


def _print_service_summary(service, *, jsonl: str | None) -> dict:
    snapshot = service.metrics_snapshot()
    print()
    print(
        f"served {snapshot['completed']}/{snapshot['submitted']} "
        f"({snapshot['cache_fast_hits']} cache fast hits, "
        f"{snapshot['shed']} shed, {snapshot['refused']} refused, "
        f"{snapshot['failed']} failed)"
    )
    print(
        f"batches           : {snapshot['batches']} "
        f"(occupancy {snapshot['batch_occupancy']:.2f})"
    )
    print(
        f"latency (sim)     : p50 {snapshot['latency_p50_s']:.4f}s  "
        f"p95 {snapshot['latency_p95_s']:.4f}s  "
        f"p99 {snapshot['latency_p99_s']:.4f}s"
    )
    print(f"cache hit rate    : {snapshot['cache_hit_rate']:.2%}")
    if jsonl:
        import json

        path = Path(jsonl)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            handle.write(json.dumps(snapshot, sort_keys=True) + "\n")
        print(f"appended metrics to {path}")
    return snapshot


def _build_service(args: argparse.Namespace, tracer=None):
    """The gateway the flags describe, and its topology (``None`` when flat)."""
    from .service import QueryService

    shards = getattr(args, "shards", 0) or 0
    topology = None
    if shards >= 2:
        # Sharded serving: a synthetic multi-table topology routed across
        # `shards` federations (optionally worker processes), under the
        # exact schedule so cross-shard merges are bit-exact.
        from .sharding import build_topology, sharded_federation

        topology = build_topology(
            shards=shards,
            parties_per_shard=max(3, args.parties),
            rows_per_table=max(1, args.values_per_node),
            seed=args.seed,
        )
        federation = sharded_federation(
            topology, processes=getattr(args, "shard_processes", False)
        )
    else:
        from .service.workload import synthetic_federation

        federation = synthetic_federation(
            parties=args.parties,
            values_per_party=args.values_per_node,
            seed=args.seed,
        )
    # `trace serve` and `metrics` expose only the shape-defining flags; the
    # service knobs fall back to the serve command's defaults.
    service = QueryService(
        federation,
        max_queue=getattr(args, "max_queue", 256),
        max_batch=getattr(args, "max_batch", 16),
        rate_limit=getattr(args, "rate_limit", None),
        rate_burst=getattr(args, "rate_burst", 8),
        tracer=tracer,
    )
    return service, topology


def _close_federation(service) -> None:
    """Release shard backends (worker processes) if the federation has any."""
    close = getattr(service.federation, "close", None)
    if close is not None:
        close()


def _cmd_serve(args: argparse.Namespace) -> int:
    statements = _read_statements(args)
    if not statements:
        print("no statements to serve (stdin was empty)", file=sys.stderr)
        return 2
    service, _topology = _build_service(args)
    try:
        results = _serve_workload(service, statements, args)
        exit_code = 0
        for statement, result in zip(statements, results):
            if isinstance(result, BaseException):
                print(f"ERROR  {statement!r}: {type(result).__name__}: {result}")
                exit_code = 1
            else:
                flag = "cached" if result.cached else f"{result.rounds} rounds"
                print(f"OK     {statement!r} -> {list(result.values)} ({flag})")
        _print_service_summary(service, jsonl=args.jsonl)
    finally:
        _close_federation(service)
    return exit_code


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from .service.workload import mixed_workload

    service, topology = _build_service(args)
    if topology is not None:
        # Sharded mode: draw statements over the topology's own tables so
        # the stream spreads across shards (and fans out where partitioned).
        from .sharding import topology_workload

        statements = topology_workload(
            topology,
            args.queries,
            seed=args.seed,
            repeat_fraction=args.repeat_fraction,
        )
    else:
        statements = mixed_workload(
            args.queries, seed=args.seed, repeat_fraction=args.repeat_fraction
        )
    try:
        results = _serve_workload(service, statements, args)
        errors = [r for r in results if isinstance(r, BaseException)]
        snapshot = _print_service_summary(service, jsonl=args.jsonl)
    finally:
        _close_federation(service)
    if args.strict:
        # CI smoke contract: a mixed workload within capacity must be served
        # in full — zero sheds — and its repeats must actually hit the cache.
        problems = []
        if snapshot["shed"]:
            problems.append(f"{snapshot['shed']} requests shed")
        if errors:
            problems.append(f"{len(errors)} requests errored")
        if not snapshot["cache_fast_hits"]:
            problems.append("no cache fast hits (repeats missed the cache)")
        if problems:
            print("STRICT FAIL: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("strict checks passed: zero sheds, repeats served from cache")
    return 0


def _jobs_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (1 = serial, 0 = all cores), got {value}"
        )
    return value


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--jobs``/``--timing`` pair of the experiment commands."""
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        help=(
            "worker processes for trial execution (1 = serial, 0 = all "
            "cores); results are bit-identical for any value"
        ),
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="collect and print per-sweep-point runtime telemetry",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-topk",
        description=(
            "Reproduction of 'Topk Queries across Multiple Private Databases' "
            "(ICDCS 2005): run the protocol or regenerate the paper's figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables and figures").set_defaults(
        func=_cmd_list
    )

    figure = sub.add_parser("figure", help="run one experiment by id")
    figure.add_argument("id", choices=all_experiment_ids())
    figure.add_argument("--trials", type=int, default=None, help="trials per point")
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--no-plot", action="store_true", help="tables only")
    figure.add_argument("--csv", type=str, default=None, help="also write CSV here")
    figure.add_argument(
        "--svg", type=str, default=None, help="also write SVG plots to this directory"
    )
    _add_execution_flags(figure)
    figure.set_defaults(func=_cmd_figure)

    everything = sub.add_parser("all", help="run every experiment, write CSVs")
    everything.add_argument("--trials", type=int, default=None)
    everything.add_argument("--seed", type=int, default=0)
    everything.add_argument("--no-plot", action="store_true")
    everything.add_argument("--out", type=str, default="results")
    everything.add_argument(
        "--svg", action="store_true", help="also write SVG plots under <out>/svg"
    )
    _add_execution_flags(everything)
    everything.set_defaults(func=_cmd_all)

    report = sub.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    report.add_argument("--trials", type=int, default=None)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", type=str, default="results/REPORT.md")
    report.add_argument(
        "--paper-only", action="store_true", help="skip the extension experiments"
    )
    _add_execution_flags(report)
    report.set_defaults(func=_cmd_report)

    query = sub.add_parser("query", help="run one ad-hoc top-k query")
    query.add_argument("--nodes", type=int, default=10)
    query.add_argument("--k", type=int, default=5)
    query.add_argument("--values-per-node", type=int, default=100)
    query.add_argument("--protocol", type=str, default="probabilistic")
    query.add_argument("--seed", type=int, default=None)
    query.add_argument(
        "--privacy-report",
        action="store_true",
        help="append the full per-node privacy analysis",
    )
    query.set_defaults(func=_cmd_query)

    validate = sub.add_parser(
        "validate", help="score every paper figure's claims (PASS/FAIL)"
    )
    validate.add_argument("--trials", type=int, default=None)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--only", nargs="*", default=None, help="score these figures only"
    )
    _add_execution_flags(validate)
    validate.set_defaults(func=_cmd_validate)

    trace = sub.add_parser(
        "trace",
        help="run traced work and export distributed traces",
        description=(
            "Run one query (default), a whole figure experiment, or a "
            "service workload with distributed tracing enabled, then export "
            "the span tree as JSONL (--jsonl) and/or a Chrome trace_event "
            "file (--chrome) loadable in chrome://tracing or Perfetto."
        ),
    )
    trace.add_argument(
        "what",
        nargs="?",
        choices=("query", "figure", "serve"),
        default="query",
        help="what to trace (default: one ad-hoc query)",
    )
    trace.add_argument(
        "id", nargs="?", default=None, help="experiment id for `trace figure`"
    )
    trace.add_argument("--nodes", type=int, default=10)
    trace.add_argument("--k", type=int, default=3)
    trace.add_argument("--values-per-node", type=int, default=20)
    trace.add_argument("--protocol", type=str, default="probabilistic")
    trace.add_argument("--seed", type=int, default=None)
    trace.add_argument("--out", type=str, default="results/traces/run.json")
    trace.add_argument(
        "--trials", type=int, default=None, help="trials per point (figure mode)"
    )
    trace.add_argument(
        "--queries", type=int, default=12, help="workload size (serve mode)"
    )
    trace.add_argument(
        "--parties", type=int, default=5, help="federation size (serve mode)"
    )
    trace.add_argument(
        "--jsonl", type=str, default=None, help="write spans as JSON-lines here"
    )
    trace.add_argument(
        "--chrome", type=str, default=None, help="write a Chrome trace_event file"
    )
    trace.add_argument(
        "--prom",
        type=str,
        default=None,
        help="write a Prometheus metrics snapshot of the traced run",
    )
    trace.add_argument(
        "--capture-values",
        action="store_true",
        help="record per-hop k-vectors in span attributes (privacy analysis)",
    )
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="collect unified metrics across service, protocol, and kernel",
        description=(
            "Run a service workload and one phase-profiled protocol query, "
            "publish everything into one MetricsRegistry, and print the "
            "Prometheus text exposition."
        ),
    )
    metrics.add_argument("--nodes", type=int, default=10)
    metrics.add_argument("--k", type=int, default=3)
    metrics.add_argument("--values-per-node", type=int, default=20)
    metrics.add_argument("--protocol", type=str, default="probabilistic")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--queries", type=int, default=24, help="service workload size"
    )
    metrics.add_argument(
        "--parties", type=int, default=5, help="federation size for the workload"
    )
    metrics.add_argument(
        "--prom", type=str, default=None, help="also write the exposition here"
    )
    metrics.add_argument(
        "--json", type=str, default=None, help="also write a JSON export here"
    )
    metrics.set_defaults(func=_cmd_metrics)

    tpch = sub.add_parser(
        "tpch",
        help="run a top-k price query over a TPC-H-like federation",
        description=(
            "Build a seeded lineitem-shaped table per party (per-party "
            "perturbed prices) at the requested scale and answer a "
            "l_extendedprice top-k query with the configured protocol.  "
            "Size with --rows (default 100000 per party) or --scale-factor "
            "(TPC-H convention, sf x 6M rows)."
        ),
    )
    tpch.add_argument("--parties", type=int, default=3)
    tpch.add_argument("--k", type=int, default=5)
    tpch.add_argument(
        "--rows", type=int, default=None, help="lineitem rows per party"
    )
    tpch.add_argument(
        "--scale-factor",
        type=float,
        default=None,
        help="TPC-H scale factor per party (sf 1 = 6M rows)",
    )
    tpch.add_argument(
        "--jitter",
        type=float,
        default=0.02,
        help="per-party price perturbation fraction (0 <= jitter < 0.1)",
    )
    tpch.add_argument(
        "--engine",
        choices=("row", "columnar"),
        default=None,
        help=(
            "storage engine backing each party's table (default: columnar); "
            "results are bit-identical across engines"
        ),
    )
    tpch.add_argument("--protocol", type=str, default="probabilistic")
    tpch.add_argument("--seed", type=int, default=0)
    tpch.add_argument(
        "--timing",
        action="store_true",
        help="print extraction-timing telemetry after the query",
    )
    tpch.set_defaults(func=_cmd_tpch)

    analyze = sub.add_parser(
        "analyze", help="recompute the privacy analysis from an archived trace"
    )
    analyze.add_argument("trace", type=str)
    analyze.set_defaults(func=_cmd_analyze)

    def add_service_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--parties", type=int, default=5)
        p.add_argument("--values-per-node", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-queue", type=int, default=256)
        p.add_argument("--max-batch", type=int, default=16)
        p.add_argument(
            "--rate-limit", type=float, default=None, help="per-issuer queries/sec"
        )
        p.add_argument("--rate-burst", type=int, default=8)
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-query deadline in service-clock seconds",
        )
        p.add_argument(
            "--jsonl", type=str, default=None, help="append metrics snapshot here"
        )
        p.add_argument(
            "--shards",
            type=int,
            default=0,
            help=(
                "shard the table space across N federations behind the "
                "gateway (N >= 2; each shard gets --parties parties and "
                "serves its slice of a synthetic multi-table topology)"
            ),
        )
        p.add_argument(
            "--shard-processes",
            action="store_true",
            help="run each shard as its own worker process (with --shards)",
        )

    plan = sub.add_parser(
        "plan",
        help="plan statements: protocol, parameters, predicted cost",
        description=(
            "Resolve dialect statements (optionally carrying WITH SLO(...) "
            "clauses) into deterministic execution plans over a synthetic "
            "federation, print each plan's explain, and — with --execute — "
            "run them and report predicted-vs-actual drift (the "
            "planner-smoke CI contract)."
        ),
    )
    plan.add_argument("statements", nargs="*", help="statements (default: stdin)")
    plan.add_argument("--parties", type=int, default=5)
    plan.add_argument("--values-per-node", type=int, default=20)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument(
        "--mode",
        choices=("quality", "economy"),
        default="quality",
        help="planner objective (economy = the gateway's downgrade mode)",
    )
    plan.add_argument(
        "--execute",
        action="store_true",
        help="also execute the planned statements and audit predictions",
    )
    plan.add_argument(
        "--max-drift",
        type=float,
        default=None,
        help="with --execute: fail if any predicted-vs-actual drift exceeds this",
    )
    plan.add_argument(
        "--json", type=str, default=None, help="write plans (+ accuracy) as JSON"
    )
    plan.set_defaults(func=_cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="serve statements through the batching query service",
        description=(
            "Run federated statements through the QueryService gateway "
            "(continuous batching + result cache) over a synthetic "
            "federation.  Statements come from the command line or stdin, "
            "one per line."
        ),
    )
    serve.add_argument("statements", nargs="*", help="statements (default: stdin)")
    add_service_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    bench_serve = sub.add_parser(
        "bench-serve",
        help="serve a synthetic mixed workload and report service metrics",
    )
    bench_serve.add_argument(
        "--queries", type=int, default=40, help="workload size"
    )
    bench_serve.add_argument(
        "--repeat-fraction",
        type=float,
        default=0.3,
        help="fraction of queries that repeat earlier ones",
    )
    bench_serve.add_argument(
        "--strict",
        action="store_true",
        help="fail unless zero sheds/errors and >0 cache fast hits (CI smoke)",
    )
    add_service_flags(bench_serve)
    bench_serve.set_defaults(func=_cmd_bench_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piped into `head` and the pipe closed early — not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
