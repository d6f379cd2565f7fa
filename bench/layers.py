"""Per-layer metrics: derived from spans, counts and small probes.

Times are self times summed per layer over the traced phase; counts are taken
at the same boundaries.  Everything here runs only under ``--trace 1``.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import catalog
import spans as sp
from spans import END, NAME, NOTE, PARENT, START


class SpanTable:
    """Spans grouped by name, with self times, for metric derivation."""

    def __init__(self, recorder: sp.Recorder) -> None:
        sp.attribute_waits(recorder)
        self.spans = recorder.spans
        self.selfs = sp.self_times(self.spans)
        self.by_name: dict = {}
        for span in self.spans:
            self.by_name.setdefault(span[NAME], []).append(span)

    def named(self, name: str) -> list:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.named(name))

    def total_self(self, name: str) -> float:
        return sum(self.selfs[id(s)] for s in self.named(name))

    def mean_us(self, name: str) -> float:
        found = self.named(name)
        return self.total(name) / len(found) * 1e6 if found else 0.0

    def mean_self_us(self, name: str) -> float:
        found = self.named(name)
        return self.total_self(name) / len(found) * 1e6 if found else 0.0

    def notes(self, name: str) -> list:
        return [s[NOTE] for s in self.named(name)]

    def layer_self(self) -> dict:
        """layer -> summed self seconds (query roots and waits excluded)."""
        totals = dict.fromkeys(catalog.LAYERS, 0.0)
        for span in self.spans:
            layer = sp.layer_of(span[NAME])
            if layer in totals:
                totals[layer] += self.selfs[id(span)]
        return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def share_metrics(table: SpanTable, wall_s: float) -> dict:
    shares = {
        f"share.{layer}_pct": 100.0 * _ratio(seconds, wall_s)
        for layer, seconds in table.layer_self().items()
    }
    # Pool threads overlap the main thread on sharded_proc, so the layers can
    # add up to more than the wall; the remainder is then reported as 0.
    shares["share.unattributed_pct"] = max(0.0, 100.0 - sum(shares.values()))
    return shares


def _first_read_after_write_us(table: SpanTable) -> float:
    """Mean extra time of the first local_topk after an insert, per table."""
    events = sorted(
        table.named("database.local_topk") + table.named("database.insert"),
        key=lambda s: s[START],
    )
    dirty, first, steady = set(), [], []
    for span in events:
        if span[NAME] == "database.insert":
            dirty.add(span[NOTE])
            continue
        key = span[NOTE][:2]
        duration = span[END] - span[START]
        if key in dirty:
            dirty.discard(key)
            first.append(duration)
        else:
            steady.append(duration)
    if not first or not steady:
        return 0.0
    return (statistics.mean(first) - statistics.mean(steady)) * 1e6


def gateway_metrics(table: SpanTable, instance, timed, service) -> dict:
    """Span- and count-derived metrics of one traced gateway phase."""
    outcomes = [r[3] for r in timed.records if not isinstance(r[3], BaseException)]
    queries = len(outcomes)
    executed_ranking = [
        o for o in outcomes
        if not o.cached and o.protocol.split("+")[0] in ("probabilistic", "naive")
    ]
    traced_results = [o for o in executed_ranking if o.trace is not None]
    batches = [
        s for s in table.spans
        if s[NAME] in ("federation.execute_many_settled", "sharding.execute_many_settled")
        and s[PARENT] is None
    ]
    queue_waits = [
        s[END] - s[PARENT][START] for s in table.named(sp.WAIT_QUEUE)
        if s[NOTE] is not None  # served by a batch, not from the cache at dequeue
    ]
    topk_rows = sum(note[2] for note in table.notes("database.local_topk"))
    core_self = sum(
        table.total_self(name)
        for name in ("core.run_topk_queries", "core.execute_batch",
                     "core.run_protocol_on_vectors")
    )
    ranking_statements = sum(table.notes("core.run_topk_queries"))
    lop_calls = table.count("privacy.average_lop") + table.count("privacy.ledger_charge")
    lop_seconds = table.total("privacy.average_lop") + table.total("privacy.ledger_charge")
    sharded_statements = sum(table.notes("sharding.execute_many_settled"))
    m = {
        "service.submit_self_us": _ratio(table.total_self("service.submit"), queries) * 1e6,
        "service.queue_wait_ms": (
            statistics.mean(queue_waits) * 1e3 if queue_waits else 0.0
        ),
        "service.batches": float(len(batches)),
        "service.batch_size_mean": _ratio(sum(s[NOTE] for s in batches), len(batches)),
        "planner.parse_us": table.mean_us("planner.parse_spec"),
        "planner.parse_calls_per_query": _ratio(table.count("planner.parse_spec"), queries),
        "planner.plan_us": table.mean_us("planner.plan"),
        "planner.plans_per_query": _ratio(table.count("planner.plan"), queries),
        "planner.infeasible": float(
            service.metrics.plan_infeasible
            + instance.oracle.failures_by_type.get("PlanInfeasible", 0)
        ),
        "federation.try_cached_self_us": table.mean_self_us("federation.try_cached"),
        "federation.execute_self_us_per_stmt": _ratio(
            table.total_self("federation.execute_many_settled"),
            sum(table.notes("federation.execute_many_settled")),
        ) * 1e6,
        "federation.cache_hit_rate": _ratio(sum(o.cached for o in outcomes), queries),
        "federation.cache_evictions": float(sum(table.notes("federation.cache_store"))),
        "federation.audit_us": table.mean_us("federation.audit_record"),
        "database.local_topk_us": table.mean_us("database.local_topk"),
        "database.rows_per_s": _ratio(topk_rows, table.total("database.local_topk")),
        "database.aggregate_us": table.mean_us("database.aggregate"),
        "database.insert_us": table.mean_us("database.insert"),
        "database.first_read_after_write_us": _first_read_after_write_us(table),
        "database.data_version_us_per_query": _ratio(
            table.total("database.data_version"), queries) * 1e6,
        "database.data_version_calls_per_query": _ratio(
            table.count("database.data_version"), queries),
        "core.run_queries_us_per_stmt": _ratio(core_self, ranking_statements) * 1e6,
        "core.rounds_per_query": _ratio(
            sum(o.rounds for o in executed_ranking), len(executed_ranking)),
        "core.messages_per_query": _ratio(
            sum(o.messages for o in executed_ranking), len(executed_ranking)),
        "core.bytes_per_query": _ratio(
            sum(o.trace.stats.bytes_total for o in traced_results), len(traced_results)),
        "privacy.lop_us_per_result": _ratio(lop_seconds, ranking_statements) * 1e6,
        "privacy.ledger_charge_us": table.mean_us("privacy.ledger_charge"),
        "privacy.lop_calls_per_query": _ratio(lop_calls, ranking_statements),
        "privacy.dp_admit_us": table.mean_us("privacy.dp_admit"),
        "privacy.dp_finalize_us": table.mean_us("privacy.dp_finalize"),
        "extensions.secure_sum_us": table.mean_us("extensions.run_secure_sum"),
        "sharding.route_self_us_per_stmt": _ratio(
            table.total_self("sharding.execute_many_settled"), sharded_statements) * 1e6,
        "sharding.try_cached_self_us": table.mean_self_us("sharding.try_cached"),
        "sharding.shard_rtt_ms": table.mean_us("sharding.process_execute") / 1e3,
        "sharding.hit_rtt_us": table.mean_us("sharding.process_try_cached"),
    }
    gate = getattr(instance.target, "dp_gate", None)
    if gate is not None:
        snapshot = gate.snapshot()
        m["privacy.dp_releases"] = float(snapshot["releases"])
        m["privacy.dp_free_serves"] = float(snapshot["free_serves"])
        m["privacy.epsilon_spent"] = float(snapshot["epsilon_spent"])
    shard_snapshot = getattr(instance.target, "shard_snapshot", None)
    if shard_snapshot is not None:
        snapshot = shard_snapshot()
        m["sharding.fanout_stmts"] = float(snapshot["fanout_statements"])
        m["sharding.fanout_width_mean"] = _ratio(
            sum(snapshot["queries_by_shard"].values()), sharded_statements)
    return m


def figures_metrics(table: SpanTable, trials: int) -> dict:
    analysis = sum(
        table.total(name) for name in table.by_name
        if name.startswith("experiments.") and name != "experiments.run_trials"
        and name != "experiments.run_experiment"
    )
    privacy_self = sum(
        table.total_self(name) for name in table.by_name if name.startswith("privacy.")
    )
    return {
        "experiments.runner_self_us_per_trial": _ratio(
            table.total_self("experiments.run_trials"), trials) * 1e6,
        "experiments.analysis_us_per_trial": _ratio(analysis, trials) * 1e6,
        "privacy.lop_us_per_result": _ratio(privacy_self, trials) * 1e6,
    }


# -- probes: layers the spans cannot reach ---------------------------------------------


def codec_probe(table: SpanTable) -> dict:
    """JSON codec cost of the batches a LocalShard twin served.

    Worker subprocesses cannot be wrapped from outside, so the wire codec is
    timed here, on the same statements and settled results: request dump +
    ``encode_settled`` + response dump + load + ``decode_settled``.
    """
    from repro.sharding.protocol import decode_settled, encode_settled

    captured = [note for note in table.notes("sharding.local_execute") if note]
    statements = sum(len(batch) for batch, _results in captured)
    wire_bytes, began = 0, time.perf_counter()
    for batch, results in captured:
        request = json.dumps(
            {"op": "execute_many_settled", "statements": list(batch),
             "issuer": "anonymous"}, sort_keys=True,
        ).encode()
        response = json.dumps(
            {"ok": True, "results": encode_settled(results)}, sort_keys=True
        ).encode()
        json.loads(request.decode())
        decode_settled(json.loads(response.decode())["results"])
        wire_bytes += len(request) + len(response)
    elapsed = time.perf_counter() - began
    return {
        "sharding.codec_us_per_stmt": _ratio(elapsed, statements) * 1e6,
        "sharding.wire_bytes_per_stmt": _ratio(wire_bytes, statements),
    }


def wire_us_per_stmt(process_table: SpanTable, twin_table: SpanTable) -> float:
    """Shard round trip minus the same batches served by a LocalShard twin."""
    statements = sum(process_table.notes("sharding.process_execute"))
    return _ratio(
        process_table.total("sharding.process_execute")
        - twin_table.total("sharding.local_execute"),
        statements,
    ) * 1e6


def core_probe(seed: int, trials: int) -> dict:
    """Per-trial cost of each executor on identical vectors (n=50, k=5)."""
    from repro.core.driver import (
        KERNEL, SESSION, run_many_on_vectors, run_protocol_on_vectors,
    )
    from repro.experiments.config import TrialSetup
    from repro.experiments.runner import trial_job

    setup = TrialSetup(n=50, k=5, trials=trials, seed=seed)
    jobs = [trial_job(setup, index) for index in range(trials)]

    def answers(results):
        return [(r.final_vector, r.rounds_executed) for r in results]

    # Parity first: a faster executor that answers differently is not faster.
    head = jobs[:4]
    reference = answers([run_protocol_on_vectors(*job, backend=SESSION) for job in head])
    assert reference == answers(
        [run_protocol_on_vectors(*job, backend=KERNEL) for job in head]
    ), "scalar kernel disagrees with the session reference"
    assert reference == answers(run_many_on_vectors(head, backend=KERNEL)), (
        "batch kernel disagrees with the session reference"
    )

    def per_trial_us(run, count: int) -> float:
        began = time.perf_counter()
        run()
        return (time.perf_counter() - began) / count * 1e6

    # The session and the batch kernel at B=1 are ~10x slower per trial than
    # the other two; fewer trials suffice.
    session_jobs = jobs[: max(4, trials // 8)]
    return {
        "core.session_us_per_trial": per_trial_us(
            lambda: [run_protocol_on_vectors(*j, backend=SESSION) for j in session_jobs],
            len(session_jobs)),
        "core.kernel_us_per_trial": per_trial_us(
            lambda: [run_protocol_on_vectors(*j, backend=KERNEL) for j in jobs], trials),
        "core.batch_b1_us_per_trial": per_trial_us(
            lambda: [run_many_on_vectors([j], backend=KERNEL) for j in session_jobs],
            len(session_jobs)),
        "core.batch_b256_us_per_trial": per_trial_us(
            lambda: run_many_on_vectors(jobs, backend=KERNEL), trials),
        "core.seed_us_per_trial": per_trial_us(
            lambda: [random.Random(j[2].seed) for j in jobs], trials),
    }


def deploy_probe(seed: int, repeats: int) -> dict:
    """One loopback ring per substrate, n=8, k=3: on no serving path."""
    from repro.database.query import TopKQuery
    from repro.deploy.async_runner import run_async_topk
    from repro.deploy.runner import run_tcp_topk

    rng = random.Random(seed)
    vectors = {
        f"node{i}": [float(rng.randint(1, 10_000)) for _ in range(10)] for i in range(8)
    }
    query = TopKQuery(table="data", attribute="value", k=3)

    def median_ms(run) -> float:
        samples = []
        for index in range(repeats):
            began = time.perf_counter()
            result = run(vectors, query, seed=seed + index)
            samples.append((time.perf_counter() - began) * 1e3)
            assert len(result.final_vector) == 3
        return statistics.median(samples)

    return {
        "deploy.tcp_ring_ms": median_ms(run_tcp_topk),
        "deploy.async_ring_ms": median_ms(run_async_topk),
    }
