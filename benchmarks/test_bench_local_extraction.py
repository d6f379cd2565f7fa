"""Bench: vectorized columnar extraction vs the row-store scan at scale.

The columnar engine (:mod:`repro.database.engines`) exists so that the
*local* phase of every protocol — each party extracting its top-k from
its own table — stays negligible at production data volumes.  This bench
builds identical TPC-H-like ``lineitem`` tables (same arrays, same seed)
on the row store and the columnar engine, asserts the extracted lists are
bit-identical, then measures ``top_k`` at 10k through 2M rows per party
and emits ``results/BENCH_local_extraction.json`` (floors on the rows,
checked by ``scripts/check_bench_floors.py``).  ``bench/``'s ``scan_write``
workload times the columnar engine only; no workload there runs the row
store beside it, so the ratio has no other home.

Methodology (the same discipline as ``test_bench_kernel.py``):

* both engines answer through the same entry point, ``Table.top_k``,
  against tables built from the *same* canonical numpy arrays — the
  measured difference is the storage substrate, nothing else;
* reps are **interleaved** (row, columnar, row, columnar, ...) in one
  process, so CPU-throttle episodes hit both engines alike and the
  *ratio* stays honest even when absolute numbers wobble;
* parity beside performance: every sweep point asserts the two engines
  return identical ``top_k`` and ``bottom_k`` lists, so the speedup cannot
  come from computing something else.

Three columnar numbers are reported per point, and they are different
things.  ``columnar_seconds`` is the **scan**: the first extraction of a
freshly built table, which builds the column's summary in one pass (a new
table per rep, so every rep pays it).  ``columnar_maintained_seconds`` is
the **maintained read**: every later extraction on the same table is read
from that summary and no longer depends on the table's length.
``read_after_write`` (at the floor scale only) inserts one row and
extracts again: the summary folds the one row forward, where the engine
used to re-consolidate and re-partition the whole column.  The row-store
floor is asserted on the scan — asserting it on the maintained read would
be vacuous — and a second floor holds the read after a write to at least
``READ_AFTER_WRITE_FLOOR`` times faster than that scan.

One ingestion point rides along: 10,000 ``lineitem`` dict rows inserted by
a loop of ``Table.insert`` against one ``Table.insert_many``, interleaved on
fresh tables.  Rows enter as columns either way; the ratio is what a batch
saves by transposing once and checking each column with one type pass, and
``insert_many_us_per_row`` is its raw cost.

One build point rides along too: four 1M-row parties (``scan_write``'s
federation) built one after another by ``lineitem_database`` against one
``lineitem_databases`` call, which builds them side by side on a thread per
core.  Each side holds its four parties until the last is built, as a
federation does; reps are interleaved, best-of per side.  The floor needs a
second core to mean anything, so on one core the row carries none.
"""

import os
import time

from benchdoc import emit, row
from repro.database import COLUMNAR, ROW, Table
from repro.database.tpch import (
    LINEITEM_SCHEMA,
    TPCH_ATTRIBUTE,
    lineitem_arrays,
    lineitem_database,
    lineitem_databases,
)

from conftest import BENCH_SEED

#: Rows per party: production (the floor point, so its rows come first),
#: toy, mid, and headroom scales.
ROWS_SWEEP = (1_000_000, 10_000, 100_000, 2_000_000)
K = 10
#: Interleaved repetitions per sweep point; best-of on each engine.
REPS = 3
#: The ratcheted acceptance floor: the columnar engine's first extraction
#: of a fresh table over the row store's extraction, at 1M rows.  Measured
#: ~40x on the reference container (the row store's heapq path is itself
#: decent); 15x leaves margin for machine noise while still rejecting any
#: regression to a per-value Python loop in the columnar path.
SPEEDUP_FLOOR = 15.0
FLOOR_AT_ROWS = 1_000_000
#: Insert one row, extract again: at least this many times faster than the
#: scan above.  Measured in the hundreds; the parent engine sat near 1x.
READ_AFTER_WRITE_FLOOR = 20.0
#: Insert-then-extract cycles timed for the read-after-write point.
WRITE_CYCLES = 25
#: Rows of the row-ingestion point: ``insert`` one row at a time against one
#: ``insert_many`` of the same dict rows, each into a fresh columnar table.
INGEST_ROWS = 10_000
INGEST_REPS = 5
#: ``insert_many`` transposes a batch into columns and validates each column
#: in one type pass, where a loop of ``insert`` pays the per-batch fixed cost
#: per row.  Measured 10-13x on a 2-vCPU VM; the per-row
#: validating batch it replaced read ~1.6x there.
INGEST_FLOOR = 4.0
#: The build point: ``scan_write``'s four 1M-row parties.
BUILD_PARTIES = 4
BUILD_ROWS = 1_000_000
BUILD_REPS = 5
#: Four serial party builds over one side-by-side build of the same four.
#: Measured ~1.5x with two cores on a 2-vCPU VM (the draws, rounding and
#: seal passes run outside the GIL; the rest of a build does not).
BUILD_FLOOR = 1.3


def _build(engine: str, arrays) -> Table:
    table = Table("lineitem", LINEITEM_SCHEMA, engine=engine)
    table.insert_arrays(arrays)
    return table


def _extraction_seconds(table: Table) -> float:
    start = time.perf_counter()
    table.top_k(TPCH_ATTRIBUTE, K)
    return time.perf_counter() - start


def _read_after_write_seconds(table: Table, row_table: Table) -> float:
    """Best extraction time straight after a one-row insert."""
    inserted = {
        column.name: 1 if column.type == "INTEGER" else 0.05
        for column in LINEITEM_SCHEMA.columns
    }
    best = float("inf")
    for cycle in range(WRITE_CYCLES):
        # Alternately a new maximum and a value that changes nothing.
        inserted[TPCH_ATTRIBUTE] = 200_000.0 + cycle if cycle % 2 else 2_000.5
        table.insert(dict(inserted))
        row_table.insert(dict(inserted))
        best = min(best, _extraction_seconds(table))
    assert table.top_k(TPCH_ATTRIBUTE, K) == row_table.top_k(TPCH_ATTRIBUTE, K)
    return best


def _ingest_seconds(rows: list[dict]) -> tuple[float, float]:
    """Best of :data:`INGEST_REPS` interleaved reps: (one ``insert`` per
    row, one ``insert_many``), each into a fresh ``lineitem`` table."""
    loop = batch = float("inf")
    for _ in range(INGEST_REPS):
        table = Table("lineitem", LINEITEM_SCHEMA, engine=COLUMNAR)
        start = time.perf_counter()
        for one in rows:
            table.insert(one)
        loop = min(loop, time.perf_counter() - start)
        table = Table("lineitem", LINEITEM_SCHEMA, engine=COLUMNAR)
        start = time.perf_counter()
        table.insert_many(rows)
        batch = min(batch, time.perf_counter() - start)
        assert len(table) == len(rows)
    return loop, batch


def _build_seconds() -> tuple[float, float]:
    """Best of :data:`BUILD_REPS` interleaved reps: (the sum of four serial
    ``lineitem_database`` builds, one ``lineitem_databases`` build)."""
    owners = [f"party{i}" for i in range(BUILD_PARTIES)]
    serial = parallel = float("inf")
    for _ in range(BUILD_REPS):
        held, total = [], 0.0
        for owner in owners:
            start = time.perf_counter()
            held.append(lineitem_database(owner, seed=BENCH_SEED, rows=BUILD_ROWS))
            total += time.perf_counter() - start
        serial = min(serial, total)
        del held
        start = time.perf_counter()
        held = lineitem_databases(BUILD_PARTIES, seed=BENCH_SEED, rows_per_party=BUILD_ROWS)
        parallel = min(parallel, time.perf_counter() - start)
        assert [len(db.table("lineitem")) for db in held] == [BUILD_ROWS] * BUILD_PARTIES
        del held
    return serial, parallel


def test_bench_local_extraction():
    ratios: list[dict] = []  # the floored ratios, floor point first
    seconds: list[dict] = []  # the raw timings behind them
    for rows in ROWS_SWEEP:
        arrays = lineitem_arrays(rows, seed=BENCH_SEED, party="bench")
        row_table = _build(ROW, arrays)

        # Interleaved reps; the columnar side is a new table every rep, so
        # each timed extraction is the scan that builds the summary.
        best = {ROW: float("inf"), COLUMNAR: float("inf")}
        for _ in range(REPS):
            best[ROW] = min(best[ROW], _extraction_seconds(row_table))
            col_table = _build(COLUMNAR, arrays)
            best[COLUMNAR] = min(best[COLUMNAR], _extraction_seconds(col_table))

        # Parity, on the table whose first extraction was just timed.
        assert row_table.top_k(TPCH_ATTRIBUTE, K) == col_table.top_k(
            TPCH_ATTRIBUTE, K
        )
        assert row_table.bottom_k(TPCH_ATTRIBUTE, K) == col_table.bottom_k(
            TPCH_ATTRIBUTE, K
        )
        assert len(row_table) == len(col_table) == rows

        maintained = min(_extraction_seconds(col_table) for _ in range(REPS))
        at_floor = rows == FLOOR_AT_ROWS
        # The columnar engine must never lose, even at toy scale and even
        # though every timed extraction pays for building the summary.
        ratios.append(
            row(
                f"first_scan_columnar_over_row_{rows}",
                best[ROW] / best[COLUMNAR],
                "x",
                at_least=SPEEDUP_FLOOR if at_floor else 1.0,
            )
        )
        if at_floor:
            after_write = _read_after_write_seconds(col_table, row_table)
            ratios.append(
                row(
                    f"read_after_write_over_first_scan_{rows}",
                    best[COLUMNAR] / after_write,
                    "x",
                    at_least=READ_AFTER_WRITE_FLOOR,
                )
            )
            seconds.append(row(f"read_after_write_seconds_{rows}", after_write, "s"))
        seconds += [
            row(f"row_seconds_{rows}", best[ROW], "s"),
            row(f"columnar_first_scan_seconds_{rows}", best[COLUMNAR], "s"),
            row(f"columnar_maintained_seconds_{rows}", maintained, "s"),
        ]

    arrays = lineitem_arrays(INGEST_ROWS, seed=BENCH_SEED, party="bench")
    names = list(arrays)
    rows = [dict(zip(names, values)) for values in zip(*(arrays[n].tolist() for n in names))]
    loop, batch = _ingest_seconds(rows)
    ratios.append(
        row(f"insert_loop_over_insert_many_{INGEST_ROWS}", loop / batch, "x",
            at_least=INGEST_FLOOR)
    )
    seconds.append(row("insert_many_us_per_row", batch / INGEST_ROWS * 1e6, "us"))

    cores = len(os.sched_getaffinity(0))
    serial, parallel = _build_seconds()
    build = f"{BUILD_PARTIES}x{BUILD_ROWS}"
    ratios.append(
        row(f"serial_over_parallel_build_{build}", serial / parallel, "x",
            at_least=BUILD_FLOOR if cores >= 2 else None)
    )
    seconds += [
        row(f"serial_build_seconds_{build}", serial, "s"),
        row(f"parallel_build_seconds_{build}", parallel, "s"),
    ]
    build_floor = (
        f"floored on {cores} usable cores" if cores >= 2 else
        "not floored: one usable core, so the pool has one worker and the "
        "parties cannot overlap"
    )

    emit(
        "local_extraction",
        f"identical seeded lineitem arrays (seed {BENCH_SEED}, {TPCH_ATTRIBUTE}, "
        f"k={K}) on both engines via Table.insert_arrays; parity of "
        "top_k/bottom_k asserted; reps interleaved in one process, best-of per "
        "engine; first_scan is the FIRST extraction of a freshly built table "
        "(a new table per rep: the scan that builds the column summary), "
        "floored against the row store; columnar_maintained is a repeat "
        "extraction on the same table (read from the summary, recorded); "
        "read_after_write inserts one row then extracts, best of "
        f"{WRITE_CYCLES} cycles, floored against the first scan; "
        f"insert_loop_over_insert_many times {INGEST_ROWS} lineitem dict rows "
        "inserted one Table.insert at a time against one Table.insert_many, "
        f"each into a fresh columnar table, interleaved, best of {INGEST_REPS}; "
        f"serial_over_parallel_build times {BUILD_PARTIES} parties of "
        f"{BUILD_ROWS} rows built one lineitem_database at a time (the sum, "
        "all four held) against one lineitem_databases call (a thread per "
        f"core), interleaved, best of {BUILD_REPS}, {build_floor}",
        ratios + seconds,
    )
