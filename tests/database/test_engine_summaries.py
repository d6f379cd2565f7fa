"""Write-maintained column summaries: exact, incremental, and cheap.

A vectorized column answers ``top_k``/``bottom_k`` (k up to
``SUMMARY_ROWS``), the five aggregates and the domain check from a summary
that inserts fold forward.  Three things are pinned here:

* **parity** — a stateful machine interleaves every kind of write with
  every kind of read on a row-store and a columnar twin and requires each
  answer equal in value, type and zero-sign (``repr`` equality), across
  nulls, ties at the cut-off, spills mid-stream and sums next to the int64
  overflow guard;
* **the mechanism** — a read after a one-row insert passes a bounded
  number of elements through numpy, a count that repeats exactly and so can
  gate where a timing cannot;
* the bugs the machine (and the issue) found, as plain regression tests.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.database import COLUMNAR, ROW, Column, Schema, Table
from repro.database import engines

AGG_FUNCS = ("max", "min", "sum", "avg", "count")
SCHEMA = Schema.of(
    Column("i", "INTEGER", nullable=True), Column("x", "REAL", nullable=True)
)


def twins(schema: Schema = SCHEMA) -> tuple[Table, Table]:
    return Table("t", schema, engine=ROW), Table("t", schema, engine=COLUMNAR)


def answers(table: Table, column: str) -> dict[str, str]:
    """Every predicate-free read of one column, as ``repr`` strings.

    ``repr`` tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0`` and makes
    ``nan`` equal to itself, which is exactly "equal in value and type".
    """
    width = engines.SUMMARY_ROWS
    out = {}
    for k in (1, width - 1, width, width + 1, 3 * width):
        out[f"top{k}"] = repr(table.top_k(column, k))
        out[f"bottom{k}"] = repr(table.bottom_k(column, k))
    for func in AGG_FUNCS:
        out[func] = repr(table.aggregate(column, func))
    for low, high in ((-1e300, 1e300), (0, 10), (-4.0, 2**62), (0.5, 0.5)):
        out[f"within[{low},{high}]"] = repr(table.values_within(column, low, high))
    return out


def assert_twins_agree(row: Table, col: Table, columns=("i", "x")) -> None:
    for column in columns:
        expected, actual = answers(row, column), answers(col, column)
        assert actual == expected, {
            read: (expected[read], actual[read])
            for read in expected
            if expected[read] != actual[read]
        }


# -- the stateful parity machine ---------------------------------------------

# Few distinct small values, so ties straddle the k-th place; magnitudes
# whose int64 sum is one step from the overflow guard; and (rarely) an
# integer that cannot live in an int64 array at all.
INTS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-(10**6), 10**6),
    st.sampled_from([2**62, 2**62 - 1, -(2**62), 2**63 - 1, -(2**63)]),
)
INT_SPILLS = st.sampled_from([2**63, -(2**63) - 1, 10**30])
REALS = st.one_of(
    st.none(),
    st.sampled_from([0.5, 0.5, 1.5, -2.5, 0.0]),
    st.floats(allow_nan=False, allow_infinity=False, width=64).filter(
        lambda v: str(v) != "-0.0"
    ),
    st.floats(-10.0, 10.0).filter(lambda v: str(v) != "-0.0"),
)
REAL_SPILLS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 7, -0.0])


def _rows(ints, reals):
    return st.lists(
        st.fixed_dictionaries({"i": ints, "x": reals}), min_size=0, max_size=40
    )


class SummaryParity(RuleBasedStateMachine):
    """Row store and columnar engine fed the same writes, read the same way."""

    def __init__(self):
        super().__init__()
        self.row, self.col = twins()

    def _both(self, write):
        results = [write(self.row), write(self.col)]
        assert results[0] == results[1]
        assert self.row.version == self.col.version

    @rule(row=st.fixed_dictionaries({"i": INTS, "x": REALS}))
    def insert(self, row):
        self._both(lambda table: table.insert(row))

    @rule(rows=_rows(INTS, REALS))
    def insert_many(self, rows):
        self._both(lambda table: table.insert_many(rows))

    @rule(
        rows=st.lists(
            st.tuples(
                st.integers(-(2**62), 2**62),
                st.floats(-1e9, 1e9).filter(lambda v: str(v) != "-0.0"),
            ),
            max_size=40,
        )
    )
    def insert_arrays(self, rows):
        batch = {
            "i": np.array([i for i, _ in rows], dtype=np.int64),
            "x": np.array([x for _, x in rows], dtype=np.float64),
        }
        self._both(lambda table: table.insert_arrays(batch))

    @rule(rows=_rows(st.one_of(INTS, INT_SPILLS), st.one_of(REALS, REAL_SPILLS)))
    def insert_many_spilling(self, rows):
        self._both(lambda table: table.insert_many(rows))

    @rule(values=st.lists(st.sampled_from([0.0, -0.0, -0.0, float("nan")]), max_size=4))
    def insert_arrays_spilling(self, values):
        batch = {
            "i": np.zeros(len(values), dtype=np.int64),
            "x": np.array(values, dtype=np.float64),
        }
        self._both(lambda table: table.insert_arrays(batch))

    @rule(column=st.sampled_from(["i", "x"]))
    def consolidate(self, column):
        # The scan path seals the pending tail and merges the chunks under
        # the summary's feet; the fold cursor has to survive it.
        assert repr(self.row.numeric_values(column)) == repr(
            self.col.numeric_values(column)
        )

    @rule()
    def read(self):
        assert_twins_agree(self.row, self.col)

    @invariant()
    def same_length(self):
        assert len(self.row) == len(self.col)

    def teardown(self):
        assert_twins_agree(self.row, self.col)


# A float sum past 1.8e308 is ``inf`` on both engines; numpy also warns.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scaled_down", [True, False], ids=["small", "real"])
def test_summary_parity_stateful(monkeypatch, scaled_down):
    if scaled_down:
        # Chunk sealing, multi-chunk folds, multi-block folds and a full
        # summary all within a few dozen rows.
        monkeypatch.setattr(engines, "SUMMARY_ROWS", 4)
        monkeypatch.setattr(engines, "CHUNK_ROWS", 16)
        monkeypatch.setattr(engines, "_FOLD_BLOCK", 5)
    run_state_machine_as_test(
        SummaryParity,
        settings=settings(max_examples=60, stateful_step_count=25, deadline=None),
    )


def test_empty_table_reads():
    row, col = twins()
    assert_twins_agree(row, col)
    assert col.aggregate("x", "sum") is None
    assert col.aggregate("x", "count") == 0.0
    assert col.top_k("i", 3) == []
    assert col.values_within("i", 5, 1)  # vacuously true, like the row store


def test_unknown_aggregate_matches_row_store():
    row, col = twins()
    for table in (row, col):
        assert table.aggregate("x", "median") is None  # empty: name unchecked
        table.insert({"i": 1, "x": 1.0})
        with pytest.raises(ValueError, match="unknown aggregate"):
            table.aggregate("x", "median")


# -- shrunk counterexamples and the issue's bug, as plain regressions --------


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 1.0],
        [-0.0, 0.0, 1.0],
        [-0.0, -0.0],
        [-1.0, -0.0, 0.0],
    ],
)
@pytest.mark.parametrize("route", ["insert_many", "insert_arrays"])
def test_signed_zeros_read_like_the_row_store(values, route):
    """``-0.0`` spills: a sort or a min may not pick the other zero.

    On the old engine ``[0.0, -0.0, 1.0]`` gave ``top_k(2) == [1.0, -0.0]``
    and ``min == -0.0`` (row store: ``0.0`` both), and ``sum([-0.0, -0.0])``
    was ``-0.0`` against Python's ``0.0``.
    """
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = twins(schema)
    for table in (row, col):
        if route == "insert_many":
            table.insert_many({"x": v} for v in values)
        else:
            table.insert_arrays({"x": np.array(values, dtype=np.float64)})
    assert_twins_agree(row, col, columns=("x",))
    assert repr(col.numeric_values("x")) == repr(values)
    assert col._engine._numeric("x").exact is not None  # took the exact path


def test_negative_zero_arriving_after_a_summary_exists():
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = twins(schema)
    for table in (row, col):
        table.insert_many({"x": v} for v in (0.0, 2.0, 1.0))
        assert table.aggregate("x", "min") == 0.0  # builds the summary
        table.insert({"x": -0.0})
    assert_twins_agree(row, col, columns=("x",))


def test_array_batch_survives_a_spill_of_the_pending_tail():
    """``insert_arrays`` seals the pending tail first; if sealing spills the
    column, the batch has to follow it into exact storage (it used to be
    appended to the abandoned chunk list and vanish from every read)."""
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = twins(schema)
    for table in (row, col):
        table.insert({"x": float("inf")})
        table.insert_arrays({"x": np.array([1.0, 2.0])})
    assert col.numeric_values("x") == row.numeric_values("x") == [float("inf"), 1.0, 2.0]
    assert_twins_agree(row, col, columns=("x",))


def test_int_sum_next_to_the_overflow_guard():
    schema = Schema.of(Column("i", "INTEGER", nullable=True))
    row, col = twins(schema)
    big = 2**62
    for table in (row, col):
        table.insert_arrays({"i": np.array([big, big, big - 1], dtype=np.int64)})
        table.aggregate("i", "sum")  # starts the running total
        table.insert_many({"i": v} for v in (big, -big, None, 2**63 - 1))
    assert_twins_agree(row, col, columns=("i",))
    assert col.aggregate("i", "sum") == float(3 * big - 1 + 2**63 - 1)


def test_float_running_sum_is_the_sequential_sum():
    """The carried total reproduces Python's left-to-right rounding however
    the rows were split across chunks, blocks and the pending tail."""
    rng = np.random.default_rng(5)
    values = (rng.uniform(-1e6, 1e6, 5000) * rng.choice([1e-9, 1.0, 1e9], 5000)).tolist()
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = twins(schema)
    row.insert_many({"x": v} for v in values)
    cuts = [0, 1, 700, 701, 2500, 4999, 5000]
    for start, stop in zip(cuts, cuts[1:]):
        if (stop - start) % 2:
            col.insert_many({"x": v} for v in values[start:stop])
        else:
            col.insert_arrays({"x": np.array(values[start:stop])})
        assert col.aggregate("x", "sum") == float(sum(values[:stop]))
    assert_twins_agree(row, col, columns=("x",))


# -- the mechanism, counted ---------------------------------------------------


class CountingNumpy:
    """``engines.np`` stand-in: counts elements handed to the copying kernels."""

    COUNTED = ("partition", "concatenate", "cumsum")

    def __init__(self):
        self.elements = Counter()
        self.largest_call = 0

    def __getattr__(self, name):
        attribute = getattr(np, name)
        if name not in self.COUNTED:
            return attribute

        def counted(first, *args, **kwargs):
            arrays = first if name == "concatenate" else [first]
            size = sum(np.size(a) for a in arrays)
            self.elements[name] += size
            self.largest_call = max(self.largest_call, size)
            return attribute(first, *args, **kwargs)

        return counted


def test_read_after_write_touches_a_bounded_number_of_elements(monkeypatch):
    rows, cycles = 200_000, 50
    rng = np.random.default_rng(11)
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = twins(schema)
    batch = {"x": rng.uniform(1.0, 1000.0, rows).round(2)}
    row.insert_arrays(batch)
    col.insert_arrays(batch)
    column = col._engine._numeric("x")
    # One warming read of each kind: the scan that builds the summary and
    # the sequential pass that starts its running sum.
    assert col.top_k("x", 10) == row.top_k("x", 10)
    assert col.aggregate("x", "sum") == row.aggregate("x", "sum")
    chunks_before = len(column.chunks)

    counting = CountingNumpy()
    monkeypatch.setattr(engines, "np", counting)
    for cycle in range(cycles):
        # Alternately a new maximum (both ends of the summary change hands)
        # and a mid-range value (neither does).
        value = 2000.0 + cycle if cycle % 2 else 500.25
        for table in (row, col):
            table.insert({"x": value})
        assert col.top_k("x", 10) == row.top_k("x", 10)
        assert col.aggregate("x", "sum") == row.aggregate("x", "sum")
    monkeypatch.undo()

    # Per cycle at most: [total, value] through concatenate and cumsum, and
    # SUMMARY_ROWS + 1 values through concatenate and partition when the
    # row displaces a kept extreme.  The parent engine moved the whole
    # column (3 x 200k elements) per cycle.
    per_cycle = 2 * (engines.SUMMARY_ROWS + 1) + 4
    assert sum(counting.elements.values()) <= cycles * per_cycle, counting.elements
    assert counting.elements == {
        "concatenate": cycles * 2 + (cycles // 2) * (engines.SUMMARY_ROWS + 1),
        "cumsum": cycles * 2,
        "partition": (cycles // 2) * (engines.SUMMARY_ROWS + 1),
    }
    # No one-row chunk sealed per cycle: the rows wait in the pending tail.
    assert len(column.chunks) == chunks_before
    assert len(column.pending) == cycles
    assert_twins_agree(row, col, columns=("x",))


def test_first_read_folds_in_blocks_not_whole_chunks(monkeypatch):
    """Building the summary never hands numpy more than a block at a time."""
    rows = 5 * engines._FOLD_BLOCK + 123
    schema = Schema.of(Column("x", "REAL", nullable=True))
    _, col = twins(schema)
    col.insert_arrays({"x": np.random.default_rng(3).uniform(0.0, 1.0, rows)})
    counting = CountingNumpy()
    monkeypatch.setattr(engines, "np", counting)
    col.top_k("x", 5)
    col.aggregate("x", "avg")
    monkeypatch.undo()
    assert 0 < counting.largest_call <= engines._FOLD_BLOCK + engines.SUMMARY_ROWS
