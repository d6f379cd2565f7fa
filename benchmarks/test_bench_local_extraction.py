"""Bench: vectorized columnar extraction vs the row-store scan at scale.

The columnar engine (:mod:`repro.database.engines`) exists so that the
*local* phase of every protocol — each party extracting its top-k from
its own table — stays negligible at production data volumes.  This bench
builds identical TPC-H-like ``lineitem`` tables (same arrays, same seed)
on the row store and the columnar engine, asserts the extracted lists are
bit-identical, then measures ``top_k`` at 10k through 2M rows per party
and emits ``results/BENCH_local_extraction.json`` for the report tooling
and CI.

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
``READ_AFTER_WRITE_FLOOR`` times faster than that scan.  A DuckDB point is
measured when the optional dependency is installed, recorded but never
asserted — SQL pushdown is a portability feature, not the perf claim.
"""

import json
import time
from pathlib import Path

from repro.database import COLUMNAR, ROW, Table, duckdb_available
from repro.database.tpch import LINEITEM_SCHEMA, TPCH_ATTRIBUTE, lineitem_arrays

from conftest import BENCH_SEED

#: Rows per party: toy, mid, production, and headroom scales.
ROWS_SWEEP = (10_000, 100_000, 1_000_000, 2_000_000)
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

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_local_extraction.json"
)


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
    row = {
        column.name: 1 if column.type == "INTEGER" else 0.05
        for column in LINEITEM_SCHEMA.columns
    }
    best = float("inf")
    for cycle in range(WRITE_CYCLES):
        # Alternately a new maximum and a value that changes nothing.
        row[TPCH_ATTRIBUTE] = 200_000.0 + cycle if cycle % 2 else 2_000.5
        table.insert(dict(row))
        row_table.insert(dict(row))
        best = min(best, _extraction_seconds(table))
    assert table.top_k(TPCH_ATTRIBUTE, K) == row_table.top_k(TPCH_ATTRIBUTE, K)
    return best


def test_bench_local_extraction():
    points = {}
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
        point = {
            "k": K,
            "row_seconds": round(best[ROW], 6),
            "columnar_seconds": round(best[COLUMNAR], 6),
            "columnar_maintained_seconds": round(maintained, 7),
            "columnar_rows_per_second": round(rows / best[COLUMNAR]),
            "speedup": round(best[ROW] / best[COLUMNAR], 1),
        }
        if duckdb_available():
            duck_table = _build("duckdb", arrays)
            assert duck_table.top_k(TPCH_ATTRIBUTE, K) == col_table.top_k(
                TPCH_ATTRIBUTE, K
            )
            point["duckdb_seconds"] = round(
                min(_extraction_seconds(duck_table) for _ in range(REPS)), 6
            )
        if rows == FLOOR_AT_ROWS:
            after_write = _read_after_write_seconds(col_table, row_table)
            point["read_after_write_seconds"] = round(after_write, 7)
            point["read_after_write_speedup"] = round(
                best[COLUMNAR] / after_write, 1
            )
        points[rows] = point

    document = {
        "bench": "local_extraction",
        "workload": {
            "table": "lineitem (TPC-H-like, seeded)",
            "attribute": TPCH_ATTRIBUTE,
            "seed": BENCH_SEED,
        },
        "methodology": (
            "identical arrays on both engines via Table.insert_arrays; "
            "parity of top_k/bottom_k asserted; reps interleaved in one "
            "process, best-of per engine; columnar_seconds is the FIRST "
            "extraction of a freshly built table (a new table per rep: the "
            "scan that builds the column summary), asserted against the row "
            "store; columnar_maintained_seconds is a repeat extraction on "
            "the same table (read from the summary, recorded); "
            "read_after_write inserts one row then extracts, best of "
            f"{WRITE_CYCLES} cycles, asserted against the scan; duckdb "
            "recorded when installed, never asserted"
        ),
        "floor": {
            "at_rows": FLOOR_AT_ROWS,
            "min_speedup": SPEEDUP_FLOOR,
            "min_read_after_write_speedup": READ_AFTER_WRITE_FLOOR,
        },
        "duckdb_measured": duckdb_available(),
        "points": points,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")

    floor_point = points[FLOOR_AT_ROWS]
    print(f"read_after_write @ {FLOOR_AT_ROWS} rows: {floor_point}")
    assert floor_point["speedup"] >= SPEEDUP_FLOOR, (
        f"columnar first-extraction speedup {floor_point['speedup']}x at "
        f"{FLOOR_AT_ROWS} rows is below the {SPEEDUP_FLOOR}x floor "
        f"({RESULTS_PATH} has the full sweep)"
    )
    assert floor_point["read_after_write_speedup"] >= READ_AFTER_WRITE_FLOOR, (
        f"extraction after a one-row insert is only "
        f"{floor_point['read_after_write_speedup']}x faster than the "
        f"first-read scan at {FLOOR_AT_ROWS} rows "
        f"(floor {READ_AFTER_WRITE_FLOOR}x)"
    )
    # The columnar engine must never lose, even at toy scale and even
    # though every timed extraction pays for building the summary.
    for rows, point in points.items():
        assert point["speedup"] > 1.0, f"columnar lost at {rows} rows: {point}"
