"""Trial execution and cross-trial aggregation.

The paper averages every plotted point over 100 experiments.  This module
runs those repeated trials — serially or fanned across a process pool —
and aggregates the two quantities the evaluation plots: precision (per
round) and loss of privacy (per round, and per node aggregated to system
average / worst case).

Parallel execution is an optimization only: each trial is a pure function
of ``(setup, trial_index)`` (the per-trial seed derivation in
:mod:`repro.experiments.config` is process-stable), so ``run_trials`` with
any ``jobs`` value returns results bit-identical to the serial path.  The
parity tests in ``tests/experiments/test_parallel.py`` enforce this.

Aggregation order matters for the worst case: each node's LoP is averaged
across trials *first*, and the worst case is the most-exposed node of those
means.  Taking per-trial maxima instead would erase the difference between
the fixed-start naive protocol (one node is *always* the victim) and the
anonymous-naive protocol (the victim role rotates) — the exact distinction
Figure 10(b) demonstrates.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pickle import PicklingError
from typing import TYPE_CHECKING

from ..core.batch import execute_many as _execute_batch
from ..core.driver import RunConfig, ambient_traces, run_protocol_on_vectors
from ..core.results import ProtocolResult
from ..database.generator import DataGenerator
from ..database.query import TopKQuery
from ..privacy.adversary import coalition_lop
from ..privacy.lop import node_lop, per_round_average_lop
from . import telemetry
from .config import TrialSetup
from .telemetry import PointTelemetry, TrialTiming

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class TrialError(RuntimeError):
    """A trial raised inside the engine; carries the failing trial index."""

    def __init__(self, setup: TrialSetup, trial_index: int, cause: BaseException):
        super().__init__(
            f"trial {trial_index} of {_setup_label(setup)} failed: {cause!r}"
        )
        self.trial_index = trial_index


def trial_job(
    setup: TrialSetup, trial_index: int
) -> tuple[dict[str, list[float]], TopKQuery, RunConfig]:
    """The pure per-trial input: ``(local_vectors, query, config)``.

    Every trial is a deterministic function of this tuple (the per-trial
    seed derivation in :mod:`repro.experiments.config` is process-stable),
    which is what lets the batched and per-trial execution paths return
    bit-identical results.
    """
    generator = DataGenerator(
        domain=setup.domain,
        distribution=setup.distribution,
        rng=setup.data_rng(trial_index),
    )
    datasets = generator.node_datasets(setup.n, setup.values_per_node)
    local_vectors = {f"node{i}": [float(v) for v in vs] for i, vs in enumerate(datasets)}
    query = TopKQuery(table="data", attribute="value", k=setup.k, domain=setup.domain)
    config = RunConfig(
        protocol=setup.protocol,
        params=setup.params,
        seed=setup.protocol_seed(trial_index),
    )
    return local_vectors, query, config


def run_single_trial(setup: TrialSetup, trial_index: int) -> ProtocolResult:
    """One protocol run on freshly drawn (per-trial-seeded) data.

    Trial configs are always failure-free, so the driver's executor rule
    runs them on a message-free kernel.
    """
    return run_protocol_on_vectors(*trial_job(setup, trial_index))


# -- the parallel trial-execution engine -------------------------------------

#: ``jobs`` default used when a call passes ``jobs=None``; settable as a
#: scope via :func:`using_jobs` so the CLI's ``--jobs`` reaches every
#: ``run_trials`` call inside a figure without changing figure signatures.
_DEFAULT_JOBS = 1

#: Chunks per worker: small enough to amortize dispatch overhead, large
#: enough that an uneven chunk doesn't leave workers idle at the tail.
_CHUNKS_PER_WORKER = 4

#: Lazily created, reused pool (keyed by worker count) so every sweep
#: point of a figure shares one set of workers instead of re-forking.
_POOL: tuple[int, ProcessPoolExecutor] | None = None


@contextmanager
def using_jobs(jobs: int | None) -> Iterator[None]:
    """Scope the default ``jobs`` for nested ``run_trials`` calls."""
    global _DEFAULT_JOBS
    previous = _DEFAULT_JOBS
    _DEFAULT_JOBS = resolve_jobs(jobs)
    try:
        yield
    finally:
        _DEFAULT_JOBS = previous


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` request: None -> scoped default, 0 -> all cores."""
    if jobs is None:
        return _DEFAULT_JOBS
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


# -- process-pool gating ------------------------------------------------------

#: Trials in a call below which the pool is not tried.  Forking is cheap
#: (under 0.1 s measured); what a short run cannot amortize is pickling
#: every result back and the workers sharing cores with the parent.
#: Measured at ``jobs=2`` on 2 cores the pre-forked pool is 0.35-0.79x
#: serial up to 1000 ten-node trials and first wins between 1000 and 4000
#: fifty-node ones (DESIGN.md, "Options census").
_MIN_POOL_TRIALS = 4000

def _pool_gate_reason(jobs: int, setups: Sequence[TrialSetup]) -> str | None:
    """Why the pool cannot win for this workload, or None if it might.

    Two ways a pool loses: more workers than cores just adds context
    switching on top of startup cost, and a workload too short to amortize
    the pool pays for it for nothing.
    """
    if jobs > (os.cpu_count() or 1):
        return "jobs_exceed_cores"
    if sum(setup.trials for setup in setups) < _MIN_POOL_TRIALS:
        return "work_below_pool_startup"
    return None


def shutdown_pool() -> None:
    """Tear down the shared worker pool (idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown(wait=False, cancel_futures=True)
        _POOL = None


atexit.register(shutdown_pool)


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL
    # Imported here, not at module scope: ``concurrent.futures.process``
    # brings ``multiprocessing`` with it, and only a run the pool gate
    # admits needs either (DESIGN.md 4e).
    from concurrent.futures import ProcessPoolExecutor

    if _POOL is not None and _POOL[0] != jobs:
        shutdown_pool()
    if _POOL is None:
        _POOL = (jobs, ProcessPoolExecutor(max_workers=jobs))
    return _POOL[1]


def _setup_label(setup: TrialSetup) -> str:
    return (
        f"{setup.protocol} n={setup.n} k={setup.k} "
        f"{setup.distribution} seed={setup.seed}"
    )


def _run_chunk(
    setup: TrialSetup, indices: Sequence[int]
) -> list[tuple[int, ProtocolResult | None, BaseException | None, float, int]]:
    """Worker body: run a contiguous block of trials, timing them.

    The block goes to the kernel path's one entry as a block: which kernel
    runs it is the executor rule's business, not the runner's.  Untagged
    query ids keep each result bit-identical to its solo run (no per-message
    query tag in the byte accounting).  If anything in the block fails, the
    per-trial loop re-runs it so the failing trial index is attributed
    exactly; failures are returned (not raised) so one bad trial cannot
    poison the pool, and the parent re-raises after accounting for them.
    """
    pid = os.getpid()
    start = time.perf_counter()
    try:
        jobs = [trial_job(setup, trial_index) for trial_index in indices]
        results = _execute_batch(
            jobs, traces=ambient_traces(jobs), query_ids=[""] * len(jobs)
        )
    except Exception:
        pass  # not lost: the per-trial loop below meets it again, by index
    else:
        # Per-trial wall time is not observable inside the batch; amortize it.
        per_trial = (time.perf_counter() - start) / max(1, len(indices))
        return [
            (trial_index, result, None, per_trial, pid)
            for trial_index, result in zip(indices, results)
        ]
    out = []
    for trial_index in indices:
        start = time.perf_counter()
        try:
            result: ProtocolResult | None = run_single_trial(setup, trial_index)
            error: BaseException | None = None
        except Exception as exc:
            result, error = None, exc
        out.append((trial_index, result, error, time.perf_counter() - start, pid))
    return out


def _chunk_indices(trials: int, jobs: int) -> list[range]:
    size = max(1, math.ceil(trials / (jobs * _CHUNKS_PER_WORKER)))
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _finish_point(
    setup: TrialSetup,
    jobs: int,
    mode: str,
    wall_start: float,
    rows: list[tuple[int, ProtocolResult | None, BaseException | None, float, int]],
) -> list[ProtocolResult]:
    """Reassemble ordered results, record telemetry, surface failures."""
    rows.sort(key=lambda row: row[0])
    timings = tuple(
        TrialTiming(trial_index=t, seconds=dt, worker=pid, ok=err is None)
        for t, _res, err, dt, pid in rows
    )
    failures = [(t, err) for t, _res, err, _dt, _pid in rows if err is not None]
    telemetry.record_point(
        PointTelemetry(
            label=_setup_label(setup),
            trials=setup.trials,
            jobs=jobs,
            mode=mode,
            wall_seconds=time.perf_counter() - wall_start,
            trial_seconds=sum(t.seconds for t in timings),
            failures=len(failures),
            workers=tuple(sorted({t.worker for t in timings})),
            timings=timings,
        )
    )
    if failures:
        trial_index, cause = failures[0]
        raise TrialError(setup, trial_index, cause) from cause
    results = [res for _t, res, _err, _dt, _pid in rows]
    assert all(res is not None for res in results)
    return results  # type: ignore[return-value]


def run_trials_many(
    setups: Sequence[TrialSetup], *, jobs: int | None = None
) -> list[list[ProtocolResult]]:
    """Run several sweep points, fanning all their trials over one pool.

    The batched form keeps workers busy across sweep-point boundaries (the
    tail of one point overlaps the head of the next); results come back
    grouped per setup, in trial order — bit-identical to calling
    :func:`run_trials` on each setup serially.

    A ``jobs > 1`` request is downgraded to the serial engine (telemetry
    mode ``serial-gated``) when the pool cannot win: more workers than
    cores, or too few trials in the call to amortize the pool
    (:func:`_pool_gate_reason`).
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return [_run_serial(setup, jobs) for setup in setups]
    if _pool_gate_reason(jobs, setups) is not None:
        return [_run_serial(setup, jobs, mode="serial-gated") for setup in setups]
    wall_start = time.perf_counter()
    try:
        pool = _shared_pool(jobs)
        pending = [
            (i, pool.submit(_run_chunk, setup, list(chunk)))
            for i, setup in enumerate(setups)
            for chunk in _chunk_indices(setup.trials, jobs)
        ]
    except (OSError, PicklingError, NotImplementedError):
        # No usable pool on this platform/configuration: degrade politely.
        shutdown_pool()
        return [
            _run_serial(setup, jobs, mode="serial-fallback") for setup in setups
        ]
    per_setup: dict[int, list] = {i: [] for i in range(len(setups))}
    try:
        for i, future in pending:
            per_setup[i].extend(future.result())
    except BaseException:
        # A lost worker (or Ctrl-C) leaves the pool unusable; reset it so
        # the next call starts clean, then let the error surface.
        shutdown_pool()
        raise
    # Note: in batched mode the per-point walls overlap (the pool works on
    # several sweep points at once), so they sum to more than the batch
    # wall; each point's wall is "time until its results were ready".
    return [
        _finish_point(setup, jobs, "parallel", wall_start, per_setup[i])
        for i, setup in enumerate(setups)
    ]


def _run_serial(
    setup: TrialSetup, jobs: int, *, mode: str = "serial"
) -> list[ProtocolResult]:
    wall_start = time.perf_counter()
    rows = _run_chunk(setup, range(setup.trials))
    return _finish_point(setup, jobs, mode, wall_start, rows)


def run_trials(setup: TrialSetup, *, jobs: int | None = None) -> list[ProtocolResult]:
    """All trials of a setup, optionally fanned across worker processes.

    ``jobs=None`` uses the scoped default (see :func:`using_jobs`, serial
    unless the CLI's ``--jobs`` raised it), ``jobs=1`` forces the serial
    path, ``jobs=0`` uses every core.  Any value returns bit-identical
    results.
    """
    return run_trials_many([setup], jobs=jobs)[0]


# -- aggregation -------------------------------------------------------------


def mean_precision_by_round(
    results: Sequence[ProtocolResult], rounds: int
) -> list[tuple[float, float]]:
    """(round, mean precision) for rounds 1..``rounds`` across trials."""
    if not results:
        raise ValueError("no results to aggregate")
    points = []
    for r in range(1, rounds + 1):
        mean = sum(res.precision_at_round(r) for res in results) / len(results)
        points.append((float(r), mean))
    return points


def mean_lop_by_round(
    results: Sequence[ProtocolResult], rounds: int
) -> list[tuple[float, float]]:
    """(round, mean-over-nodes-and-trials LoP) for rounds 1..``rounds``.

    The Figure 7 quantity: per-round system LoP, averaged across trials.
    Rounds a run never executed contribute 0 (no traffic, no exposure).
    """
    if not results:
        raise ValueError("no results to aggregate")
    per_round = [per_round_average_lop(res) for res in results]
    points = []
    for r in range(1, rounds + 1):
        total = 0.0
        for means in per_round:
            total += means.get(r, 0.0)
        points.append((float(r), total / len(results)))
    return points


def _per_node_means(
    results: Sequence[ProtocolResult],
    metric: Callable[[ProtocolResult, str], float],
) -> dict[str, float]:
    sums: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for res in results:
        for node in res.ring_order:
            sums[node] += metric(res, node)
            counts[node] += 1
    return {node: sums[node] / counts[node] for node in sums}


def aggregate_node_lop(
    results: Sequence[ProtocolResult],
) -> tuple[float, float]:
    """(average LoP, worst-case LoP) with per-node-first averaging.

    Average: mean over nodes of each node's cross-trial mean peak LoP.
    Worst case: the largest per-node cross-trial mean ("highest loss of
    privacy among all the nodes", Section 5.3) — for the fixed-start naive
    protocol this is the starting node.
    """
    if not results:
        raise ValueError("no results to aggregate")
    means = _per_node_means(results, node_lop)
    values = list(means.values())
    return sum(values) / len(values), max(values)


def aggregate_coalition_lop(
    results: Sequence[ProtocolResult],
) -> tuple[float, float]:
    """(average, worst-case) coalition LoP, per-node-first like the above."""
    if not results:
        raise ValueError("no results to aggregate")
    means = _per_node_means(results, coalition_lop)
    values = list(means.values())
    return sum(values) / len(values), max(values)


def mean_final_precision(results: Sequence[ProtocolResult]) -> float:
    """Mean precision of the final returned vectors."""
    if not results:
        raise ValueError("no results to aggregate")
    return sum(res.precision() for res in results) / len(results)


def mean_messages(results: Sequence[ProtocolResult]) -> float:
    """Mean token+result messages per run (communication cost)."""
    if not results:
        raise ValueError("no results to aggregate")
    return sum(res.stats.messages_total for res in results) / len(results)
