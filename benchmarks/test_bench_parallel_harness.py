"""Bench: the process-pool trial engine vs the serial engine, at the gate's line.

``run_trials(jobs=N)`` reaches the process pool only when the runner's gate
says it can win: ``N`` <= cores and at least ``_MIN_POOL_TRIALS`` (4000)
trials in the call.  That line was drawn from a measurement (DESIGN.md,
"Options census": the pool first wins between 1000 and 4000 fifty-node
trials), and this bench holds it there: at the smallest workload the gate
admits on a fifty-node ring, the pool at ``jobs=2`` must not be slower than
the serial engine.  The workers are started and warmed by an untimed call
first, as they were when the line was drawn (figure runs reuse one pool
across dozens of sweep points; a cold first call costs ~3 s more here and
loses).  Bit-identity is asserted on all trials.

(The bench used to claim ">= 2x with 4 workers" at a 100-trial point, but
only on >= 4 cores, so the claim never ran: at 100 trials the pool is
0.35-0.54x serial at ``jobs=2`` and 0.44x at ``jobs=4`` on the 2-core
reference box — pickling every result back costs more than the trials.)

Emits ``results/BENCH_parallel_harness.json`` (floor on the row, checked by
``scripts/check_bench_floors.py``).  ``bench/``'s ``paper_figures`` workload
runs the serial engine only, so it cannot state this ratio.
"""

import dataclasses
import os
import time

import pytest

from benchdoc import emit, row
from repro.core.params import ProtocolParams
from repro.experiments import telemetry
from repro.experiments.config import TrialSetup
from repro.experiments.runner import run_trials, shutdown_pool

from conftest import BENCH_SEED

#: The smallest call the gate admits (``runner._MIN_POOL_TRIALS``).
TRIALS = 4000
NODES = 50
JOBS = 2
#: Interleaved repetitions (serial, pool, serial, pool); best-of per side.
REPS = 2
#: Where the gate lets the pool run, the pool must not lose.
POOL_FLOOR = 1.0


@pytest.mark.skipif(
    (os.cpu_count() or 1) < JOBS,
    reason=f"the gate never admits jobs={JOBS} on fewer cores",
)
def test_bench_parallel_harness():
    setup = TrialSetup(
        n=NODES,
        k=3,
        params=ProtocolParams.paper_defaults(),
        trials=TRIALS,
        seed=BENCH_SEED,
    )

    # Start and warm the workers on the cheapest call the gate admits.
    run_trials(dataclasses.replace(setup, n=10), jobs=JOBS)

    best = {1: float("inf"), JOBS: float("inf")}
    modes = set()
    for _ in range(REPS):
        results = {}
        for jobs in best:
            with telemetry.collect() as tel:
                start = time.perf_counter()
                results[jobs] = run_trials(setup, jobs=jobs)
                best[jobs] = min(best[jobs], time.perf_counter() - start)
            if jobs == JOBS:
                modes.update(point.mode for point in tel.points)
        assert len(results[1]) == len(results[JOBS]) == TRIALS
        for a, b in zip(results[1], results[JOBS]):
            assert a.final_vector == b.final_vector
            assert a.ring_order == b.ring_order
            assert a.round_snapshots == b.round_snapshots
    shutdown_pool()
    assert modes == {"parallel"}, f"the gate kept the pool out: modes={modes}"

    emit(
        "parallel_harness",
        f"{TRIALS} paper-default trials in one call (n={NODES}, k=3, seed "
        f"{BENCH_SEED}) through run_trials(jobs=1) and run_trials(jobs={JOBS}), "
        f"gate on (telemetry must report the pool ran); {REPS} reps interleaved "
        "in one process, best-of per side, after one untimed pool call that "
        "starts and warms the workers; all trials compared field by field.  "
        "Skips below 2 cores, where the gate keeps the pool out",
        [
            row(
                f"pool{JOBS}_over_serial_at_gate_line",
                best[1] / best[JOBS],
                "x",
                at_least=POOL_FLOOR,
            ),
            row("serial_seconds", best[1], "s"),
            row("pool_seconds", best[JOBS], "s"),
        ],
    )
