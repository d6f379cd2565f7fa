#!/usr/bin/env python3
"""Size the scalar-vs-vectorised kernel crossover (DESIGN.md "Which executor runs").

Per-run wall milliseconds of the two message-free kernels on identical
same-shape jobs, through the public API (``run_many_on_vectors`` pinned to
``KERNEL``), at batch sizes on both sides of
``repro.core.batch.VECTOR_CROSSOVER``.  Each side is forced by patching that
constant for the measurement (huge -> every group scalar, 1 -> every group
vectorised); nothing else reaches it.

Methodology: paper-default probabilistic trials (``experiments.runner.
trial_job``), k=5, 64 runs per cell (256 at B=256); one untimed pass first
(warm MT19937 kept harvest, warm allocator), then the best of ``--repeats``
timed passes per kernel, the two kernels alternating so machine-speed drift
lands on both; every pass checks that both kernels return equal answers.

    PYTHONPATH=src python scripts/size_executor_crossover.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy

from repro.core import batch
from repro.core.driver import KERNEL, run_many_on_vectors
from repro.experiments.config import TrialSetup
from repro.experiments.runner import trial_job

BATCH_SIZES = (1, 8, 16, 32, 256)
NODE_COUNTS = (12, 50)
K = 5


def _timed_pass(batches, crossover: int):
    """Seconds for one pass over ``batches`` with the constant forced, and the answers."""
    batch.VECTOR_CROSSOVER = crossover
    began = time.perf_counter()
    results = [run_many_on_vectors(b, backend=KERNEL) for b in batches]
    elapsed = time.perf_counter() - began
    return elapsed, [
        (r.final_vector, r.stats.bytes_total) for rs in results for r in rs
    ]


def _per_run_ms(jobs, batch_size: int, repeats: int) -> tuple[float, float]:
    """Best-of-``repeats`` (scalar, vectorised) per-run ms at one batch size.

    The two kernels take turns within each repeat, so a change in machine
    speed mid-measurement lands on both sides.
    """
    batches = [jobs[i : i + batch_size] for i in range(0, len(jobs), batch_size)]
    best = {sys.maxsize: float("inf"), 1: float("inf")}
    for attempt in range(repeats + 1):  # attempt 0 is the warm-up pass
        answers = {}
        for crossover in best:
            elapsed, answers[crossover] = _timed_pass(batches, crossover)
            if attempt:
                best[crossover] = min(best[crossover], elapsed)
        assert answers[1] == answers[sys.maxsize], "the kernels disagree"
    return tuple(seconds / len(jobs) * 1e3 for seconds in best.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--json", help="also write the table as JSON here")
    args = parser.parse_args(argv)

    shipped = batch.VECTOR_CROSSOVER
    rows = []
    try:
        for n in NODE_COUNTS:
            for size in BATCH_SIZES:
                # Enough runs per cell that one pass is well above timer noise.
                runs = max(size, 64 // size * size)
                setup = TrialSetup(n=n, k=K, trials=runs, seed=args.seed)
                jobs = [trial_job(setup, index) for index in range(runs)]
                scalar_ms, vector_ms = _per_run_ms(jobs, size, args.repeats)
                rows.append(
                    {
                        "n": n,
                        "k": K,
                        "batch": size,
                        "scalar_ms_per_run": round(scalar_ms, 3),
                        "vectorised_ms_per_run": round(vector_ms, 3),
                    }
                )
    finally:
        batch.VECTOR_CROSSOVER = shipped

    print(f"{'n':>3} {'B':>4} {'scalar ms/run':>14} {'vectorised ms/run':>18}  faster")
    for row in rows:
        faster = (
            "vectorised"
            if row["vectorised_ms_per_run"] < row["scalar_ms_per_run"]
            else "scalar"
        )
        print(
            f"{row['n']:>3} {row['batch']:>4} {row['scalar_ms_per_run']:>14.3f} "
            f"{row['vectorised_ms_per_run']:>18.3f}  {faster}"
        )
    print(f"shipped VECTOR_CROSSOVER = {shipped}")
    if args.json:
        document = {
            "crossover": shipped,
            "rows": rows,
            "methodology": __doc__.split("Methodology: ")[1].split("\n\n")[0],
            "env": {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
