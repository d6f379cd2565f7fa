"""Bench: the parallel trial-execution engine vs the serial path.

Measures one paper-scale figure point (100 trials) both ways, checks the
bit-identity guarantee at benchmark scale, and — on machines with enough
cores — asserts the engine's reason to exist: >= 2x throughput with 4
workers.  On smaller runners the speedup is reported but not asserted
(forking four workers onto one core cannot beat the serial loop).

The ``ungated_pool`` fixture switches the runner's gate off: this bench
measures the pool engine itself, and the gate would (correctly, for real
workloads this small) downgrade the request to the serial engine.
"""

import os
import time

from repro.core.params import ProtocolParams
from repro.experiments.config import TrialSetup
from repro.experiments.runner import run_trials, shutdown_pool

from conftest import BENCH_SEED

#: The paper's per-point trial count — the workload this engine targets.
POINT_TRIALS = 100
BENCH_JOBS = 4
#: Cores needed before the 2x assertion is meaningful.
MIN_CORES_FOR_SPEEDUP = 4


def _point_setup() -> TrialSetup:
    return TrialSetup(
        n=10,
        k=3,
        params=ProtocolParams.paper_defaults(rounds=8),
        trials=POINT_TRIALS,
        seed=BENCH_SEED,
    )


def test_bench_parallel_harness(ungated_pool):
    setup = _point_setup()

    start = time.perf_counter()
    serial = run_trials(setup, jobs=1)
    serial_seconds = time.perf_counter() - start

    # Fork the pool before timing so startup cost isn't charged to the
    # steady-state throughput (real figure runs reuse the pool across
    # dozens of sweep points).
    run_trials(setup.with_(trials=BENCH_JOBS), jobs=BENCH_JOBS)
    start = time.perf_counter()
    parallel = run_trials(setup, jobs=BENCH_JOBS)
    parallel_seconds = time.perf_counter() - start
    shutdown_pool()

    # Bit-identity at benchmark scale: all 100 trials, field by field.
    assert len(serial) == len(parallel) == POINT_TRIALS
    for a, b in zip(serial, parallel):
        assert a.final_vector == b.final_vector
        assert a.ring_order == b.ring_order
        assert a.round_snapshots == b.round_snapshots

    speedup = serial_seconds / parallel_seconds
    cores = os.cpu_count() or 1
    print(
        f"\n100-trial point: serial {serial_seconds:.3f}s, "
        f"parallel (jobs={BENCH_JOBS}) {parallel_seconds:.3f}s, "
        f"speedup {speedup:.2f}x on {cores} core(s)"
    )
    if cores >= MIN_CORES_FOR_SPEEDUP:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {BENCH_JOBS} workers on "
            f"{cores} cores, measured {speedup:.2f}x"
        )
