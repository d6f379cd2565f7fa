#!/usr/bin/env python3
"""Size the sealed-chunk encodings (DESIGN.md 4h): what each costs, what it saves.

Per ``lineitem`` column at ``--rows`` rows: the bytes a row takes at int64 /
float64, the encoding ``repro.database.engines._seal`` picks and its bytes,
the milliseconds sealing takes, and the milliseconds a full ``decode()``
takes (what the column's first scan pays on top of reading int64 / float64).
REAL columns are sealed twice: under the shipped rule (codes of at most 32
bits) and under a 16-bit cap, the variant the rule rejects — forced by
setting ``engines._CODE_DTYPES`` for that measurement; nothing else reaches
it.  Each rule also builds one party (``lineitem_database``, sealed a
``CHUNK_ROWS`` block at a time) under ``tracemalloc``: its peak is what the
rule costs in memory.  The totals lines are the trade the rule rests on:
bytes per row and build peak against milliseconds of sealing.

Methodology: the generator's own arrays (``lineitem_arrays``, seed
``--seed``); one untimed pass first, then the best of ``--repeats`` timed
passes per cell, the variants alternating within each repeat so machine-speed
drift lands on all of them; every sealed run is checked to decode to the bits
it was given.  A run kept at full width is adopted, not copied, which is why
it seals in microseconds.  The build peak is traced once per rule (it
repeats exactly for a given row count), relative to the memory traced before
the build.

    PYTHONPATH=src python scripts/size_chunk_encoding.py [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc

import numpy

from repro.database import engines
from repro.database.tpch import TPCH_TABLE, lineitem_arrays, lineitem_database

SHIPPED = engines._CODE_DTYPES
VARIANTS = {
    "shipped": SHIPPED,
    "16-bit cap": (numpy.int8, numpy.int16),
}


def _sealed(values, code_dtypes) -> tuple[float, float, engines._SealedRun]:
    """One ``_seal`` under the given code widths and one full ``decode``:
    milliseconds of each, and the run."""
    engines._CODE_DTYPES = code_dtypes
    values.setflags(write=True)  # an earlier pass may have adopted and frozen it
    began = time.perf_counter()
    run = engines._seal(values)
    sealed = time.perf_counter()
    decoded = run.decode()
    ended = time.perf_counter()
    assert numpy.array_equal(
        decoded.view(numpy.int64), values.view(numpy.int64)
    ), f"{run.encoding} does not read back"
    return (sealed - began) * 1e3, (ended - sealed) * 1e3, run


def _measure(name: str, values, repeats: int) -> list[dict]:
    variants = VARIANTS if values.dtype.kind == "f" else {"shipped": SHIPPED}
    cells = {
        label: {"column": name, "variant": label, "seal_ms": [], "decode_ms": []}
        for label in variants
    }
    for attempt in range(repeats + 1):  # attempt 0 is the warm-up pass
        for label, code_dtypes in variants.items():
            seal, decode, run = _sealed(values, code_dtypes)
            if attempt:
                cells[label]["seal_ms"].append(seal)
                cells[label]["decode_ms"].append(decode)
            cells[label].update(
                canonical_bytes=values.dtype.itemsize,
                encoding=run.encoding,
                bytes=run.codes.dtype.itemsize,
            )
    for cell in cells.values():
        cell.update(seal_ms=min(cell["seal_ms"]), decode_ms=min(cell["decode_ms"]))
    return list(cells.values())


def _build_peak(rows: int, seed: int, code_dtypes) -> dict:
    """MB traced at the peak of one party's build under the given code
    widths, MB it keeps, and the bytes a row takes once built."""
    engines._CODE_DTYPES = code_dtypes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = lineitem_database("party0", seed=seed, rows=rows).table(TPCH_TABLE)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "build_peak_mb": (peak - base) / 1e6,
        "build_kept_mb": (kept - base) / 1e6,
        "built_bytes_per_row": table.nbytes / max(rows, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--json", help="also write the table as JSON here")
    args = parser.parse_args(argv)

    rows = []
    try:
        lineitem_arrays(10, seed=args.seed)  # lazy imports outside the trace
        builds = {
            label: _build_peak(args.rows, args.seed, code_dtypes)
            for label, code_dtypes in VARIANTS.items()
        }
        for name, values in lineitem_arrays(args.rows, seed=args.seed).items():
            rows.extend(_measure(name, values, args.repeats))
    finally:
        engines._CODE_DTYPES = SHIPPED

    print(
        f"sealed-chunk encodings at {args.rows} rows "
        f"(best of {args.repeats}, variants interleaved)"
    )
    print(
        f"{'column':<16} {'variant':<12} {'encoding':<12} "
        f"{'B/row':>6} {'saved':>6} {'seal ms':>8} {'decode ms':>10}"
    )
    for row in rows:
        print(
            f"{row['column']:<16} {row['variant']:<12} {row['encoding']:<12} "
            f"{row['bytes']:>6} {row['canonical_bytes'] - row['bytes']:>6} "
            f"{row['seal_ms']:>8.2f} {row['decode_ms']:>10.2f}"
        )
    # Under a variant a column has no row of its own for (the INTEGER
    # columns have one way to be sealed), it is sealed the shipped way.
    shipped_cells = {row["column"]: row for row in rows if row["variant"] == "shipped"}
    totals = {}
    for label in VARIANTS:
        cells = {
            **shipped_cells,
            **{row["column"]: row for row in rows if row["variant"] == label},
        }.values()
        totals[label] = {
            "bytes_per_row": sum(cell["bytes"] for cell in cells),
            "seal_ms": sum(cell["seal_ms"] for cell in cells),
            **builds[label],
        }
        assert totals[label]["built_bytes_per_row"] == totals[label]["bytes_per_row"], (
            f"{label}: a built party does not store what its columns sealed to"
        )
        print(
            f"total, {label:<12}: {totals[label]['bytes_per_row']:>3} B/row "
            f"(int64 / float64: {sum(cell['canonical_bytes'] for cell in cells)}), "
            f"{totals[label]['seal_ms']:.2f} ms to seal, building a party peaks at "
            f"{totals[label]['build_peak_mb']:.2f} MB and keeps "
            f"{totals[label]['build_kept_mb']:.2f} MB"
        )
    shipped, capped = totals["shipped"], totals["16-bit cap"]
    more = {key: capped[key] - shipped[key] for key in shipped}
    print(
        f"the 16-bit cap would store {more['bytes_per_row']} more B/row and peak "
        f"{more['build_peak_mb']:+.2f} MB per party build for {more['seal_ms']:+.2f} "
        f"ms of sealing per {args.rows} rows, and save the decode in front of "
        f"every scan of the column"
    )
    if args.json:
        document = {
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "rows": args.rows,
            "repeats": args.repeats,
            "seed": args.seed,
            "cells": rows,
            "totals": totals,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
