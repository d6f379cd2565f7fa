"""Write-maintained column summaries: exact, incremental, and cheap.

A vectorized column answers ``top_k``/``bottom_k`` (k up to
``SUMMARY_ROWS``) and the five aggregates from a summary that inserts fold
forward.  Three things are pinned here:

* **parity** — a stateful machine interleaves every kind of write with
  every kind of read on a row-store and a columnar twin and requires each
  answer equal in value, type and zero-sign (``repr`` equality), across
  nulls, ties at the cut-off, spills mid-stream, sums next to the int64
  overflow guard, and runs the engine seals narrower than int64 / float64
  (every integer width, every decimal scale, and their near-misses); a
  column batch streamed in a drawn order either stores bit for bit what
  its mapping form stores or, failing on any column, changes nothing;
* **the encoder** — each kind of sealed run decodes to the bits it was
  given, whole and by slice, without a floating-point warning;
* **the mechanism** — a read after a one-row insert passes a bounded
  number of elements through numpy, a count that repeats exactly and so can
  gate where a timing cannot;
* the bugs the machine (and the issue) found, as plain regression tests.

A ``k`` past ``SUMMARY_ROWS`` is read through the scan the summary replaces
— ``materialize`` / ``valid_values`` and the ``top_k_array`` /
``bottom_k_array`` kernels — and the machine compares it too.
"""

import copy
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

from repro.database import (
    COLUMNAR,
    ROW,
    Column,
    PrivateDatabase,
    Schema,
    SchemaError,
    Table,
)
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



# Runs the engine can seal narrower than int64 / float64.  A run is coded
# only if *all* of it fits, so these are drawn a whole batch at a time:
# integers capped one past a width boundary (values on both sides of it,
# so the same strategy yields int8 and int16 runs, int16 and int32, ...)
# and reals that are exact decimals at one scale of the ladder.
INT_EDGES = [
    edge
    for top in (2**7, 2**15, 2**31)
    for edge in (top - 1, top, -top, -top - 1)
]


def _int_run(cap):
    edges = [edge for edge in INT_EDGES if abs(edge) <= cap]
    return st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(edges)), max_size=40)


def _decimal_run(scale):
    return st.lists(st.integers(-30000, 30000).map(lambda c: c / scale), max_size=40)


INT_RUNS = st.sampled_from([2**7 + 1, 2**15 + 1, 2**31 + 1]).flatmap(_int_run)
# Decimal-looking values that must stay float64: sums that are one ulp off
# a decimal, a decimal nudged by 2**-40, codes that need 33 bits.  Beside
# them, codes of 17 to 31 bits, which a run of int32 codes holds.
NEAR_DECIMALS = st.one_of(
    st.integers(-30000, 30000).map(lambda c: c / 100),
    st.sampled_from([0.1 + 0.2, 1 / 3]),
    st.integers(-300, 300).map(lambda c: c / 100 + 2**-40),
    st.integers(2**15, 2**17).map(lambda c: c / 100),
    st.integers(2**31, 2**33).map(lambda c: c / 100),
    st.integers(2**31, 2**33).map(lambda c: -c / 10),
)
REAL_RUNS = st.one_of(
    st.sampled_from([1, 10, 100, 1000, 10000]).flatmap(_decimal_run),
    st.lists(NEAR_DECIMALS, max_size=40),
)
# ``zip`` cuts the two runs to the shorter one.
NARROW_ROWS = st.tuples(INT_RUNS, REAL_RUNS).map(lambda runs: list(zip(*runs)))


def _rows(ints, reals):
    return st.lists(
        st.fixed_dictionaries({"i": ints, "x": reals}), min_size=0, max_size=40
    )


#: How a streamed ``insert_arrays`` batch goes wrong (``None``: it does not).
STREAM_FAULTS = (None, None, None, "2-D", "ragged", "unknown", "repeated", "bad value", "missing")


def _faulty(pairs, fault, at):
    """The ``(name, values)`` stream with ``fault`` placed at position ``at``."""
    pairs = list(pairs)
    at = min(at, len(pairs) - 1)
    name, values = pairs[at]
    if fault == "2-D":
        pairs[at] = (name, np.asarray(values).reshape(-1, 1))
    elif fault == "ragged":
        pairs[at] = (name, list(values) + [None])
    elif fault == "unknown":
        pairs.insert(at, ("z", values))
    elif fault == "repeated":
        pairs.insert(at + 1, pairs[at])
    elif fault == "bad value":
        pairs[at] = (name, ["bad"] + list(values)[1:])
    elif fault == "missing":
        del pairs[at]
    return pairs


def column_of(table: Table, name: str):
    """A columnar table's column ``name``.  An engine that never held a row
    has built no column, and reads as the fresh column it would build."""
    engine = table._engine
    if engine._columns is None:
        return engines._NumericColumn(engine._DTYPES[table.schema.column(name).type])
    return engine._numeric(name)


def stored(table: Table) -> tuple:
    """Everything a table holds, arrays as bytes: equal iff bit for bit."""
    if table.engine_name == ROW:
        return len(table), table.version, repr(table.scan())
    columns = []
    for name in table.schema.names:
        column = column_of(table, name)
        summary = column._summary
        columns.append((
            [(run.encoding, run.codes.tobytes()) for run in column.chunks],
            None if column.masks is None else [mask.tobytes() for mask in column.masks],
            repr(column.pending),
            repr(column.exact),
            column._folded,
            None if summary is None else (
                summary.count,
                repr(summary.total),
                summary.largest.tobytes(),
                summary.smallest.tobytes(),
            ),
        ))
    return len(table), table.version, columns


class SummaryParity(RuleBasedStateMachine):
    """Row store and columnar engine fed the same writes, read the same way."""

    #: ``(column, encoding)`` of every chunk seen sealed after any step, so
    #: the test can tell that its runs did reach coded chunks.
    sealed: set = set()

    def __init__(self):
        super().__init__()
        # Each twin in a database of its own, so ``data_version`` is watched.
        self.databases = PrivateDatabase("o", engine=ROW), PrivateDatabase("o", engine=COLUMNAR)
        self.row, self.col = (db.create_table("t", SCHEMA) for db in self.databases)

    def _both(self, write):
        results = [write(self.row), write(self.col)]
        assert results[0] == results[1]
        assert self.row.version == self.col.version
        assert self.databases[0].data_version == self.databases[1].data_version

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

    @rule(rows=NARROW_ROWS)
    def insert_arrays_narrow(self, rows):
        batch = {
            "i": np.array([i for i, _ in rows], dtype=np.int64),
            "x": np.array([x for _, x in rows], dtype=np.float64),
        }
        self._both(lambda table: table.insert_arrays(batch))

    @rule(rows=NARROW_ROWS, holes=st.sets(st.integers(0, 39), max_size=6))
    def insert_many_narrow(self, rows, holes):
        # Through the pending tail, with nulls: a coded chunk under a mask.
        staged = [
            {"i": None if n in holes else i, "x": None if n + 1 in holes else x}
            for n, (i, x) in enumerate(rows)
        ]
        self._both(lambda table: table.insert_many(staged))

    @rule(
        rows=st.one_of(NARROW_ROWS, st.lists(st.tuples(INTS, REALS), max_size=40)),
        order=st.permutations(["i", "x"]),
        listed=st.sets(st.sampled_from(["i", "x"])),
        fault=st.sampled_from(STREAM_FAULTS),
        at=st.integers(0, 2),
        cuts=st.lists(st.integers(0, 40), max_size=3),
    )
    def insert_arrays_streamed(self, rows, order, listed, fault, at, cuts):
        # A column is an array unless drawn as a list, which may hold None
        # (and, from INTS / REALS, values that spill); an array column's
        # None becomes a value its dtype holds.  With ``cuts``, every array
        # column arrives as an iterator of the blocks they cut it into.
        batch = {}
        for position, (name, dtype) in enumerate((("i", np.int64), ("x", np.float64))):
            values = [row[position] for row in rows]
            if name not in listed:
                values = np.array([0 if v is None else v for v in values], dtype=dtype)
            batch[name] = values
        stream = _faulty([(name, batch[name]) for name in order], fault, at)

        def blocked():
            for name, values in stream:
                if cuts and isinstance(values, np.ndarray):
                    values = iter(np.split(values, sorted(cuts)))
                yield name, values

        for database, table in zip(self.databases, (self.row, self.col)):
            before = stored(table), database.data_version
            if fault is not None:
                with pytest.raises(SchemaError):
                    table.insert_arrays(blocked())
                assert (stored(table), database.data_version) == before
                continue
            spilled = [
                name for name in ("i", "x")
                if table.engine_name == COLUMNAR
                and column_of(table, name).exact is not None
            ]
            mapping_form = copy.deepcopy(table)
            assert table.insert_arrays(blocked()) == mapping_form.insert_arrays(batch)
            if cuts:  # a block is a sealed run of its own: compare the reads
                assert repr(table.scan()) == repr(mapping_form.scan())
            else:
                assert stored(table) == stored(mapping_form)
            for name in spilled:
                # Stored as Python objects: the caller's array is not adopted.
                if isinstance(batch[name], np.ndarray):
                    assert batch[name].flags.writeable, name
        assert self.row.version == self.col.version
        assert self.databases[0].data_version == self.databases[1].data_version

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
        # The scan path seals the pending tail under the summary's feet (the
        # fold cursor has to survive it) and decodes every sealed run, of
        # whatever width, to int64 / float64 in one array.
        assert repr(self.row.project(column)) == repr(self.col.project(column))

    @rule()
    def read(self):
        assert_twins_agree(self.row, self.col)

    @invariant()
    def same_length(self):
        assert len(self.row) == len(self.col)

    @invariant()
    def note_encodings(self):
        for name in ("i", "x"):
            SummaryParity.sealed.update(
                (name, chunk.encoding)
                for chunk in column_of(self.col, name).chunks
            )

    def teardown(self):
        assert_twins_agree(self.row, self.col)


# A float sum past 1.8e308 is ``inf`` on both engines, and neither warns.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scaled_down", [True, False], ids=["small", "real"])
def test_summary_parity_stateful(monkeypatch, scaled_down):
    if scaled_down:
        # Chunk sealing, multi-chunk folds, multi-block folds and a full
        # summary all within a few dozen rows.
        monkeypatch.setattr(engines, "SUMMARY_ROWS", 4)
        monkeypatch.setattr(engines, "CHUNK_ROWS", 16)
        monkeypatch.setattr(engines, "_FOLD_BLOCK", 5)
    SummaryParity.sealed.clear()
    run_state_machine_as_test(
        SummaryParity,
        settings=settings(max_examples=60, stateful_step_count=25, deadline=None),
    )
    # The runs sealed chunks on both sides of every encoding decision.
    ints = {encoding for name, encoding in SummaryParity.sealed if name == "i"}
    reals = {encoding for name, encoding in SummaryParity.sealed if name == "x"}
    assert "int64" in ints and ints & {"int8", "int16", "int32"}, ints
    assert "float64" in reals and any("/" in encoding for encoding in reals), reals


def test_empty_table_reads():
    row, col = twins()
    assert_twins_agree(row, col)
    assert col.aggregate("x", "sum") is None
    assert col.aggregate("x", "count") == 0.0
    assert col.top_k("i", 3) == []


def test_unknown_aggregate_matches_row_store():
    """A misspelt function is refused whatever the table holds: it used to
    read as "no data" (``None``) until the first row landed."""
    row, col = twins()
    for table in (row, col):
        with pytest.raises(ValueError, match="unknown aggregate"):
            table.aggregate("x", "median")
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
    assert repr(col.project("x")) == repr(values)
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
    assert col.project("x") == row.project("x") == [float("inf"), 1.0, 2.0]
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


# -- the encoder: every kind of sealed run reads back bit for bit -------------


def _cents(count, scale=100, low=-30000, high=30000, seed=7):
    codes = np.random.default_rng(seed).integers(low, high + 1, count)
    return codes / scale


def _late_miss():
    """Decimal at every probed position; the 10 000th value is not."""
    values = _cents(20_000)
    values[9_999] = 1 / 3
    return values


def _late_overflow():
    """A value outside the probe whose scaled product overflows a double."""
    values = _cents(1_000, scale=10_000)
    values[7] = 1.7e308
    return values


INT_RUN_CASES = {
    "empty": ([], "int64"),
    "one": ([5], "int8"),
    "all-equal": ([300] * 50, "int16"),
    "int8-edges": ([-128, 127, 0], "int8"),
    "past-int8-high": ([128, 0], "int16"),
    "past-int8-low": ([-129, 0], "int16"),
    "int16-edges": ([-(2**15), 2**15 - 1], "int16"),
    "past-int16-high": ([2**15, 0], "int32"),
    "past-int16-low": ([-(2**15) - 1, 0], "int32"),
    "int32-edges": ([-(2**31), 2**31 - 1], "int32"),
    "past-int32-high": ([2**31, 0], "int64"),
    "past-int32-low": ([-(2**31) - 1, 0], "int64"),
    "int64-edges": ([-(2**63), 2**63 - 1], "int64"),
    "beyond-2^53": ([2**53 + 1, -(2**53) - 1, 2**53 + 3], "int64"),
}
REAL_RUN_CASES = {
    "empty": ([], "float64"),
    "one": ([0.25], "int8/100"),
    "all-equal": ([17.5] * 50, "int16/10"),
    "zero": ([0.0, 0.0], "int8/1"),
    "scale-1": (_cents(500, scale=1), "int16/1"),
    "scale-10": (_cents(500, scale=10), "int16/10"),
    "scale-100": (_cents(500, scale=100), "int16/100"),
    "scale-1000": (_cents(500, scale=1000), "int16/1000"),
    "scale-10000": (_cents(500, scale=10_000), "int16/10000"),
    "int8-codes": (_cents(500, low=-127, high=127), "int8/100"),
    "past-int8-codes": ([1.28, -0.5], "int16/100"),
    "int16-code-edges": ([327.67, -327.67], "int16/100"),
    "17-bit-codes": ([327.68, 0.5], "int32/100"),
    "int32-code-edges": ([21474836.47, -21474836.47], "int32/100"),
    "past-int32-codes": ([21474836.48, 0.5], "float64"),
    "scale-100000": ([0.00001, 0.5], "float64"),
    "sum-of-decimals": ([0.1 + 0.2, 0.5], "float64"),
    "third": ([1 / 3], "float64"),
    "nudged": ([0.25 + 2**-40, 0.5], "float64"),
    "tiny-negative": ([-1e-9, 0.5], "float64"),
    "arbitrary": (np.random.default_rng(3).uniform(-1e9, 1e9, 1000), "float64"),
    "late-miss": (_late_miss(), "float64"),
    "integer-valued-1e300": ([1e300, 2.0, -1e300], "float64"),
    "late-overflow": (_late_overflow(), "float64"),
    "blocks-and-a-remainder": (_cents(3 * engines._FOLD_BLOCK + 11), "int16/100"),
}


def _assert_reads_back(values: np.ndarray, expected: str) -> None:
    given = values.copy()  # a run kept at full width adopts (and freezes) its input
    run = engines._seal(values)
    assert run.encoding == expected
    assert len(run) == len(given)
    assert run.codes.flags.c_contiguous
    cuts = sorted({0, 1, len(given) // 2, max(len(given) - 1, 0), len(given)})
    for low, high in [(0, None)] + [(a, b) for a in cuts for b in cuts if a <= b]:
        decoded = run.decode(low, high)
        assert decoded.dtype == given.dtype
        assert np.array_equal(decoded.view(np.int64), given[low:high].view(np.int64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", INT_RUN_CASES)
def test_sealed_integer_run_reads_back(case):
    values, expected = INT_RUN_CASES[case]
    _assert_reads_back(np.array(values, dtype=np.int64), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", REAL_RUN_CASES)
def test_sealed_real_run_reads_back(case):
    values, expected = REAL_RUN_CASES[case]
    _assert_reads_back(np.array(values, dtype=np.float64), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_null_but_one_seals_through_the_pending_tail():
    """``_flush`` codes a run with its null placeholders (zeros) in it."""
    row, columnar = twins()
    null = {"i": None, "x": None}
    for table in (row, columnar):
        table.insert_many([null] * 9 + [{"i": -129, "x": 0.25}] + [null] * 5)
    assert repr(columnar.scan()) == repr(row.scan())  # seals the tail
    for name, encoding, value in (("i", "int16", -129), ("x", "int8/100", 0.25)):
        column = columnar._engine._numeric(name)
        (chunk,), (mask,) = column.chunks, column.masks
        assert chunk.encoding == encoding
        assert mask.tolist() == [n == 9 for n in range(15)]
        assert chunk.decode().tolist() == [value if ok else 0 for ok in mask]
    assert_twins_agree(row, columnar)


def test_one_column_holds_runs_of_different_widths():
    """int8 then int64, decimal codes then raw doubles then wider codes, in
    one column: every read decodes each run to the canonical dtype before it
    meets another."""
    row, columnar = twins()
    batches = [
        {"i": np.array([1, -2, 3]), "x": np.array([0.25, 0.5, -0.75])},
        {"i": np.array([2**40, -(2**62)]), "x": np.array([1 / 3, 2**-30])},
        {"i": np.array([300, -300, 7, 7]), "x": np.array([1.5, 2.5, 1.5, 1e6])},
    ]
    for batch in batches:
        for table in (row, columnar):
            table.insert_arrays(batch)
        assert_twins_agree(row, columnar)
    assert columnar._engine.encodings() == {
        "i": "int8+int64+int16",
        "x": "int8/100+float64+int32/10",
    }
    assert repr(columnar.scan()) == repr(row.scan())
    # Codes at their stored widths, plus two 9-value summary ends per column.
    assert columnar.nbytes == 3 * (1 + 1) + 2 * (8 + 8) + 4 * (2 + 4) + 2 * 2 * 9 * 8
    assert row.nbytes is None


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
