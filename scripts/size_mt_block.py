#!/usr/bin/env python3
"""Size the MT19937 replay's seeding block (DESIGN.md, "The kernel's working set").

``repro.core.sampling.mt19937_words`` seeds the streams its kept harvest
does not hold a block at a time into one ``(624, block)`` uint32 state; the
block is a state budget in bytes over 624 x 4 B.  This measures what the budget trades: for
every budget in ``BUDGETS_MIB`` and every harvest size in ``STREAMS``
(fresh seeds, ``--words`` words each, the kept harvest dropped before every
call), the best-of-``--repeats`` milliseconds of one harvest and its
``tracemalloc`` peak over the memory traced before it.  Every budget must
produce the same words, bit for bit; the script checks it.  Then every
figure of the researcher's path (fig6-fig12 at the benchmark's trial
counts, seed 0, one process each) is run in a fresh interpreter at the
shipped budget and at the largest measured one, and its ``ru_maxrss`` is
reported: what the budget is for.  The figures run first: on Linux a
child's ``ru_maxrss`` starts from its spawner's high-water mark (it is
carried across fork and exec), so they are spawned before the harvests
below grow this process, and the spawner's own mark is printed beside them.

Methodology: one untimed pass first, then the best of ``--repeats`` timed
passes per cell, the budgets alternating within each repeat so machine-speed
drift lands on all of them.  The budget is set by assigning
``sampling._MT_BLOCK`` for the measurement (and in the child processes);
nothing in the program can set it.  The peak is traced once per cell (it
repeats exactly for a given harvest), outside the timed passes.  The two
figure budgets alternate per figure too.

    PYTHONPATH=src python scripts/size_mt_block.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy

from repro.core import sampling

ROOT = Path(__file__).resolve().parent.parent
BUDGETS_MIB = (1, 2, 4, 8, 20)
STREAMS = (768, 1_000, 3_200, 6_400, 20_000)
#: The researcher's path: figure id and trials, as the benchmark runs it.
FIGURES = (
    ("fig6", 100), ("fig7", 100), ("fig8", 10), ("fig9", 100),
    ("fig10", 100), ("fig11", 100), ("fig12", 100),
)
#: Bytes of one stream's MT19937 state.
STATE_BYTES = sampling._MT_N * 4
SHIPPED = sampling._MT_BLOCK

#: Runs one figure in a fresh interpreter at a given block; prints its
#: wall seconds and ``ru_maxrss`` (KiB on Linux) as JSON.
CHILD = """
import json, resource, sys, time
from repro.core import sampling
sampling._MT_BLOCK = int(sys.argv[3])
from repro.experiments.figures import registry
began = time.perf_counter()
registry.run_experiment(sys.argv[1], trials=int(sys.argv[2]), seed=0, jobs=1)
print(json.dumps({"wall_s": time.perf_counter() - began,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _block(budget_mib: int) -> int:
    return (budget_mib << 20) // STATE_BYTES


def _harvest(seeds: list[int], words: int, block: int) -> tuple[float, numpy.ndarray]:
    """Milliseconds of one cold harvest at ``block`` streams per block."""
    sampling._MT_BLOCK = block
    sampling.prefix_cache_clear()
    began = time.perf_counter()
    got = sampling.mt19937_words(seeds, words)
    return (time.perf_counter() - began) * 1e3, got


def _peak(seeds: list[int], words: int, block: int) -> float:
    """MiB traced at the peak of one cold harvest, over what was traced before."""
    sampling._MT_BLOCK = block
    sampling.prefix_cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sampling.mt19937_words(seeds, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


def _measure(streams: int, words: int, repeats: int, seed: int) -> list[dict]:
    rng = random.Random(seed + streams)
    seeds = [rng.getrandbits(64) for _ in range(streams)]
    cells = {
        mib: {"budget_mib": mib, "block": _block(mib), "streams": streams, "ms": []}
        for mib in BUDGETS_MIB
    }
    reference = None
    for attempt in range(repeats + 1):  # attempt 0 is the warm-up pass
        for cell in cells.values():
            ms, got = _harvest(seeds, words, cell["block"])
            if reference is None:
                reference = got
            assert numpy.array_equal(got, reference), (
                f"block {cell['block']} changes the words of {streams} streams"
            )
            if attempt:
                cell["ms"].append(ms)
    for cell in cells.values():
        cell.update(
            ms=min(cell["ms"]),
            blocks=-(-streams // cell["block"]),
            peak_mib=_peak(seeds, words, cell["block"]),
        )
    return list(cells.values())


def _figure(figure: str, trials: int, block: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, figure, str(trials), str(block)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--words", type=int, default=54)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument(
        "--no-figures", action="store_true", help="skip the per-figure processes"
    )
    parser.add_argument("--json", help="also write the tables as JSON here")
    args = parser.parse_args(argv)

    figures = []
    widest = _block(BUDGETS_MIB[-1])
    spawner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.no_figures:
        for figure, trials in FIGURES:
            row = {"figure": figure, "trials": trials}
            for label, block in (("shipped", SHIPPED), ("widest", widest)):
                run = _figure(figure, trials, block)
                row[f"{label}_maxrss_mb"] = run["maxrss_kib"] / 1024
                row[f"{label}_wall_s"] = run["wall_s"]
            figures.append(row)

    cells = []
    try:
        for streams in STREAMS:
            cells.extend(_measure(streams, args.words, args.repeats, args.seed))
    finally:
        sampling._MT_BLOCK = SHIPPED
        sampling.prefix_cache_clear()

    print(
        f"MT19937 harvest of {args.words} words per stream, fresh seeds "
        f"(best of {args.repeats}, budgets interleaved; shipped block {SHIPPED})"
    )
    print(
        f"{'streams':>8} {'budget MiB':>10} {'block':>6} {'blocks':>6} "
        f"{'ms':>8} {'peak MiB':>9}"
    )
    for cell in cells:
        mark = "  <- shipped" if cell["block"] == SHIPPED else ""
        print(
            f"{cell['streams']:>8} {cell['budget_mib']:>10} {cell['block']:>6} "
            f"{cell['blocks']:>6} {cell['ms']:>8.2f} {cell['peak_mib']:>9.2f}{mark}"
        )

    if figures:
        print(
            f"per figure, fresh process: ru_maxrss (MB) and wall s at block "
            f"{SHIPPED} (shipped) and block {widest} ({BUDGETS_MIB[-1]} MiB); "
            f"spawned from a process at {spawner_mb:.1f} MB"
        )
        print(
            f"{'figure':<7} {'trials':>6} {'shipped MB':>10} {'s':>6} "
            f"{'widest MB':>10} {'s':>6}"
        )
        for row in figures:
            print(
                f"{row['figure']:<7} {row['trials']:>6} "
                f"{row['shipped_maxrss_mb']:>10.1f} {row['shipped_wall_s']:>6.2f} "
                f"{row['widest_maxrss_mb']:>10.1f} {row['widest_wall_s']:>6.2f}"
            )

    if args.json:
        document = {
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "words": args.words,
            "repeats": args.repeats,
            "seed": args.seed,
            "shipped_block": SHIPPED,
            "cells": cells,
            "spawner_maxrss_mb": spawner_mb,
            "figures": figures,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
