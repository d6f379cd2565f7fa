"""Names, units, bounds and predictions for every metric the bench reports.

``BENCHMARK.json`` is the contract-shaped projection of this module (see
``benchmark_json``; ``bench/test_smoke.py`` asserts the committed file
matches).  Later issues refer to metrics by the names fixed here.

Two kinds of metric:

* **end-to-end** -- what a user of the system sees.  The driver's contract
  wants every end-to-end metric printed for every workload, never 0, and
  steady from run to run within its bound (at most 0.25).  ``END_TO_END``
  holds the ones that meet all three.  The other user-visible metrics are in
  ``USER_VISIBLE``: those that exist on a subset of the workloads only
  (per-class latency, write latency, LoP, simulated seconds, ...) and every
  wall-clock time and rate -- the reference box's speed moves by more than
  any bound from one run to the next, and the issue says a timing metric
  that cannot hold its bound is demoted (see the README, *Steadiness*).  The
  result files and ``compare.py`` treat them exactly like end-to-end
  metrics, with the bounds below; towards the driver they are listed under
  ``per_layer``, the only place the contract allows them.
* **per-layer** -- a layer is a package under ``src/repro/``.  Each entry
  records which end-to-end metric it should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

GATEWAY = ("hot_repeat", "cold_ring", "scan_write", "sharded_proc", "slo_dp")
ALL = GATEWAY + ("paper_figures",)

#: name -> one-line reason, as recorded in BENCHMARK.json.
WORKLOADS = {
    "hot_repeat": (
        "Cache fast path: 12-party flat federation, 90 % repeats, 8 closed-loop "
        "clients; service+planner.parse+federation do all the work, core/privacy/"
        "database none."
    ),
    "cold_ring": (
        "Wide ring, tiny tables, cache defeated by working-set size (384 forms vs "
        "64 entries), 32 clients: core batch kernel and privacy LoP accounting "
        "dominate."
    ),
    "scan_write": (
        "Narrow ring over 4 x 1M-row lineitem tables, 1 client, an insert before "
        "every 3rd query: database extraction dominates; writes beside reads."
    ),
    "sharded_proc": (
        "Two real worker subprocesses behind ShardedFederation, 16 clients: JSON "
        "codec, socket round trip, fan-out and merge; every hit is an RPC."
    ),
    "slo_dp": (
        "In-process sharded federation, every statement carries a feasible WITH "
        "SLO(...) incl. DP keys, 32 clients: planner, privacy.dp and route/merge "
        "with no wire."
    ),
    "paper_figures": (
        "The researcher's path: fig6/7/9/10/11/12 at 100 trials byte-compared with "
        "results/*.csv plus fig8 shape check; experiments.runner, core kernel, "
        "privacy.lop, no gateway."
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the baseline by which the metric may get worse; ``None`` for
    #: per-layer metrics (no bound) and 0.0 for *exact* ones (seed-
    #: deterministic: any movement means behaviour changed, not speed).
    bound: "float | None" = None
    #: Workloads the metric exists on.
    on: tuple = ALL
    #: Per-layer only: the end-to-end metric it is predicted to move.
    moves: str = ""
    what: str = ""


#: Printed with ``--trace 0`` on every workload; gated by the driver.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           what="fastest of the build repetitions: databases, federation, shards"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           what="peak resident set, self + live workers"),
    Metric("precision", "ratio", "higher", 0.02,
           what="paper's metric: mean |answer ∩ true top-k| / k over executed "
                "non-DP ranking queries (warm-up included) / fig6 final round"),
)

END_TO_END_NAMES = frozenset(m.name for m in END_TO_END)

#: User-visible, but not steady enough or not defined on every workload.
#: Same treatment as END_TO_END in result files and compare.py.
USER_VISIBLE = (
    Metric("queries_per_s", "1/s", "higher", 0.25,
           what="completed operations / timed wall s; an operation is a query "
                "on the gateway five and one protocol trial on paper_figures "
                "(also printed as trials_per_s there)"),
    Metric("cpu_us_per_op", "us", "lower", 0.25,
           what="(self + worker user+sys CPU over the timed phase) / completed op"),
    Metric("hit_p50_us", "us", "lower", 0.25, ("hot_repeat", "sharded_proc", "slo_dp")),
    Metric("hit_p90_us", "us", "lower", 0.25, ("hot_repeat", "sharded_proc", "slo_dp")),
    Metric("miss_p50_ms", "ms", "lower", 0.25,
           ("cold_ring", "scan_write", "sharded_proc", "slo_dp"),
           what="submit -> result, queue wait included"),
    Metric("miss_p90_ms", "ms", "lower", 0.25,
           ("cold_ring", "scan_write", "sharded_proc", "slo_dp")),
    Metric("write_p50_us", "us", "lower", 0.25, ("scan_write",),
           what="per PrivateDatabase.insert"),
    Metric("trials_per_s", "1/s", "higher", 0.25, ("paper_figures",)),
    Metric("failed_frac", "ratio", "lower", 0.0, ALL,
           what="(refused + failed + shed + oracle mismatches) / attempted; "
                "baseline is 0, bound is absolute"),
    Metric("lop_mean", "ratio", "lower", 0.0,
           ("cold_ring", "slo_dp", "paper_figures"),
           what="mean average_lop over executed ranking queries / fig8 points; exact"),
    Metric("sim_s", "sim_s", "lower", 0.0, GATEWAY,
           what="total simulated protocol seconds (the paper's network model, "
                "beside wall, never instead); exact"),
)


def _layer(name, unit, moves, on, what=""):
    better = "higher" if unit in ("1/s",) or name.endswith("_ratio") else "lower"
    return Metric(name, unit, better, None, tuple(on), moves, what)


_HOT = ("hot_repeat",)
_COLD = ("cold_ring",)
_SCAN = ("scan_write",)
_PROC = ("sharded_proc",)
_DP = ("slo_dp",)
_FIG = ("paper_figures",)

PER_LAYER = (
    _layer("service.submit_self_us", "us", "hit_p50_us, queries_per_s", _HOT,
           "QueryService.submit on-CPU time minus child spans, per query"),
    _layer("service.queue_wait_ms", "ms", "miss_p50_ms", _COLD + _DP,
           "submit start -> enclosing execute_many_settled start, mean"),
    _layer("service.batch_size_mean", "count", "queries_per_s", _COLD,
           "statements per execute_many_settled call"),
    _layer("service.batches", "count", "queries_per_s", _COLD),
    _layer("planner.parse_us", "us", "hit_p50_us", _HOT, "mean parse_spec call"),
    _layer("planner.parse_calls_per_query", "count", "hit_p50_us", _HOT,
           "shows re-parsing along one path"),
    _layer("planner.plan_us", "us", "miss_p50_ms, queries_per_s", _DP,
           "mean QueryPlanner.plan call"),
    _layer("planner.plans_per_query", "count", "queries_per_s", _DP),
    _layer("planner.infeasible", "count", "failed_frac", _DP),
    _layer("federation.try_cached_self_us", "us", "hit_p50_us", _HOT),
    _layer("federation.execute_self_us_per_stmt", "us", "miss_p50_ms", _COLD + _SCAN,
           "Federation.execute_many_settled self time / statement"),
    _layer("federation.cache_hit_rate", "ratio", "queries_per_s", GATEWAY,
           "bench-side: outcome.cached share of completed queries"),
    _layer("federation.cache_evictions", "count", "queries_per_s", GATEWAY,
           "ResultCache.store calls that found the cache full"),
    _layer("federation.audit_us", "us", "hit_p50_us", _HOT, "mean AuditLog.record"),
    _layer("database.local_topk_us", "us", "miss_p50_ms", _SCAN,
           "mean PrivateDatabase.local_topk"),
    _layer("database.rows_per_s", "1/s", "miss_p50_ms", _SCAN,
           "table rows scanned by local_topk per second inside it"),
    _layer("database.aggregate_us", "us", "miss_p50_ms", _SCAN, "mean Table.aggregate"),
    _layer("database.insert_us", "us", "write_p50_us", _SCAN),
    _layer("database.first_read_after_write_us", "us", "miss_p90_ms", _SCAN,
           "mean extra time of the first local_topk on a table after an "
           "insert over the steady-state call"),
    _layer("database.data_version_us_per_query", "us", "hit_p50_us", _HOT + _COLD,
           "O(parties x tables) per cache key today"),
    _layer("database.data_version_calls_per_query", "count", "hit_p50_us", _HOT + _COLD),
    _layer("core.run_queries_us_per_stmt", "us", "miss_p50_ms, queries_per_s", _COLD,
           "run_topk_queries as bound in federation.coordinator, self / ranking stmt"),
    _layer("core.rounds_per_query", "count", "sim_s", _COLD + _DP, "exact"),
    _layer("core.messages_per_query", "count", "sim_s", _COLD + _DP, "exact"),
    _layer("core.bytes_per_query", "count", "sim_s", _COLD + _DP, "exact"),
    _layer("core.session_us_per_trial", "us", "trials_per_s", _FIG,
           "run_many_on_vectors(backend=session), n=50 k=5, parity asserted"),
    _layer("core.kernel_us_per_trial", "us", "trials_per_s", _FIG,
           "run_protocol_on_vectors(backend=kernel), same vectors"),
    _layer("core.batch_b1_us_per_trial", "us", "trials_per_s", _FIG,
           "run_many_on_vectors(backend=kernel), one job per call"),
    _layer("core.batch_b256_us_per_trial", "us", "trials_per_s", _FIG,
           "run_many_on_vectors(backend=kernel), 256 jobs per call"),
    _layer("core.seed_us_per_trial", "us", "trials_per_s", _FIG,
           "random.Random(seed) alone: the MT19937 asymptote"),
    _layer("privacy.lop_us_per_result", "us", "miss_p50_ms, trials_per_s", _COLD + _FIG,
           "average_lop + ExposureLedger.charge time per executed result"),
    _layer("privacy.ledger_charge_us", "us", "miss_p50_ms", _COLD),
    _layer("privacy.lop_calls_per_query", "count", "miss_p50_ms", _COLD,
           "average_lop + ExposureLedger.charge calls per executed ranking query"),
    _layer("privacy.dp_admit_us", "us", "miss_p50_ms", _DP),
    _layer("privacy.dp_finalize_us", "us", "miss_p50_ms", _DP),
    _layer("privacy.dp_releases", "count", "failed_frac", _DP, "exact"),
    _layer("privacy.dp_free_serves", "count", "failed_frac", _DP, "exact"),
    _layer("privacy.epsilon_spent", "count", "failed_frac", _DP, "exact"),
    _layer("extensions.secure_sum_us", "us", "miss_p50_ms", _SCAN + _DP,
           "mean run_secure_sum"),
    _layer("sharding.route_self_us_per_stmt", "us", "miss_p50_ms", _DP + _PROC,
           "ShardedFederation.execute_many_settled minus shard-backend calls"),
    _layer("sharding.try_cached_self_us", "us", "hit_p50_us", _DP + _PROC),
    _layer("sharding.shard_rtt_ms", "ms", "miss_p50_ms", _PROC,
           "mean ProcessShard.execute_many_settled"),
    _layer("sharding.hit_rtt_us", "us", "hit_p50_us", _PROC,
           "mean ProcessShard.try_cached"),
    _layer("sharding.wire_us_per_stmt", "us", "queries_per_s", _PROC,
           "shard_rtt minus the same batches on a LocalShard twin"),
    _layer("sharding.codec_us_per_stmt", "us", "queries_per_s", _PROC,
           "encode_settled + decode_settled + JSON on captured batches"),
    _layer("sharding.wire_bytes_per_stmt", "count", "queries_per_s", _PROC),
    _layer("sharding.fanout_stmts", "count", "miss_p90_ms", _PROC + _DP, "exact"),
    _layer("sharding.fanout_width_mean", "count", "miss_p90_ms", _PROC + _DP,
           "shard dispatches per routed-or-fanned statement"),
    _layer("experiments.runner_self_us_per_trial", "us", "trials_per_s", _FIG),
    _layer("experiments.analysis_us_per_trial", "us", "trials_per_s", _FIG,
           "aggregate_node_lop / mean_*_by_round"),
    _layer("observability.tracer_on_ratio", "ratio", "", _HOT + _COLD,
           "queries_per_s with the product's TraceRecorder / without "
           "(ROADMAP target >= 0.85)"),
    _layer("deploy.tcp_ring_ms", "ms", "", _FIG,
           "run_tcp_topk n=8 k=3 loopback; on no serving path"),
    _layer("deploy.async_ring_ms", "ms", "", _FIG, "run_async_topk, same job"),
    _layer("bench.trace_overhead_ratio", "ratio", "", ALL,
           "traced-run queries_per_s / untraced"),
)

LAYERS = (
    "service", "planner", "federation", "database", "core", "privacy",
    "extensions", "sharding", "experiments",
)
#: Share of traced on-CPU time spent in each layer's own code (self time).
SHARES = tuple(
    Metric(f"share.{layer}_pct", "%", "lower", None, ALL,
           what=f"self time of {layer} spans / timed wall of the traced phase")
    for layer in LAYERS
) + (
    Metric("share.unattributed_pct", "%", "lower", None, ALL,
           what="traced wall not inside any span: event loop, generator, wrappers"),
)

#: Everything listed under ``per_layer`` in BENCHMARK.json, in print order.
TRACED = USER_VISIBLE + PER_LAYER + SHARES

BY_NAME = {m.name: m for m in END_TO_END + TRACED}

RUN_SECONDS = 10


def benchmark_json() -> dict:
    """The contract-shaped document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACED
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_json(), indent=2, ensure_ascii=False))
