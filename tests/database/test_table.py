"""Unit tests for repro.database.table."""

import enum
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.database import PrivateDatabase
from repro.database.engines import ColumnarEngine
from repro.database.schema import Column, Schema, SchemaError
from repro.database.table import Table
from repro.database.tpch import TPCH_ATTRIBUTE, TPCH_TABLE, lineitem_database


@pytest.fixture
def sales() -> Table:
    table = Table("sales", Schema.of(("amount", "INTEGER"), ("region", "TEXT")))
    table.insert_many(
        [
            {"amount": 100, "region": "east"},
            {"amount": 250, "region": "west"},
            {"amount": 50, "region": "east"},
            {"amount": 900, "region": "north"},
        ]
    )
    return table


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError, match="non-empty"):
            Table("", Schema.of(("a", "INTEGER")))

    def test_starts_empty(self):
        assert len(Table("t", Schema.of(("a", "INTEGER")))) == 0


class TestInsert:
    def test_insert_validates(self, sales: Table):
        with pytest.raises(SchemaError):
            sales.insert({"amount": "lots", "region": "east"})

    def test_insert_copies_rows(self, sales: Table):
        row = {"amount": 1, "region": "east"}
        sales.insert(row)
        row["amount"] = 999_999
        assert 999_999 not in sales.project("amount")

    def test_insert_many_is_atomic(self, sales: Table):
        before = len(sales)
        with pytest.raises(SchemaError):
            sales.insert_many(
                [{"amount": 1, "region": "east"}, {"amount": None, "region": "x"}]
            )
        assert len(sales) == before

    def test_insert_many_returns_count(self, sales: Table):
        assert sales.insert_many([{"amount": 1, "region": "a"}] * 3) == 3


class TestQueries:
    def test_scan_all(self, sales: Table):
        assert len(sales.scan()) == 4

    def test_scan_returns_copies(self, sales: Table):
        sales.scan()[0]["amount"] = -1
        assert -1 not in sales.project("amount")

    def test_project(self, sales: Table):
        assert sales.project("region") == ["east", "west", "east", "north"]

    def test_project_unknown_column(self, sales: Table):
        with pytest.raises(SchemaError, match="no such column"):
            sales.project("ghost")

class TestTopK:
    def test_top_k_descending(self, sales: Table):
        assert sales.top_k("amount", 2) == [900, 250]

    def test_top_k_more_than_rows(self, sales: Table):
        assert sales.top_k("amount", 10) == [900, 250, 100, 50]

    def test_top_k_k_must_be_positive(self, sales: Table):
        with pytest.raises(ValueError, match="k must be"):
            sales.top_k("amount", 0)

    def test_bottom_k_ascending(self, sales: Table):
        assert sales.bottom_k("amount", 2) == [50, 100]


class TestAggregates:
    @pytest.mark.parametrize(
        "func,expected",
        [("max", 900), ("min", 50), ("sum", 1300.0), ("avg", 325.0), ("count", 4.0)],
    )
    def test_aggregates(self, sales: Table, func: str, expected: float):
        assert sales.aggregate("amount", func) == expected

    def test_aggregate_empty_returns_none(self):
        table = Table("t", Schema.of(("a", "INTEGER")))
        assert table.aggregate("a", "max") is None

    def test_unknown_aggregate(self, sales: Table):
        with pytest.raises(ValueError, match="unknown aggregate"):
            sales.aggregate("amount", "median")

    def test_count_excludes_nulls_so_avg_equals_sum_over_count(self):
        # Regression: count used to include NULLs while sum/avg excluded
        # them, so avg != sum/count on nullable columns.
        table = Table("t", Schema.of(Column("a", "REAL", nullable=True)))
        table.insert_many([{"a": 2.0}, {"a": None}, {"a": 4.0}, {"a": None}])
        assert table.aggregate("a", "count") == 2.0
        assert table.aggregate("a", "sum") == 6.0
        assert table.aggregate("a", "avg") == table.aggregate(
            "a", "sum"
        ) / table.aggregate("a", "count")

    def test_count_non_null_works_on_text_and_with_filter(self):
        table = Table(
            "t", Schema.of(Column("tag", "TEXT", nullable=True), ("v", "INTEGER"))
        )
        table.insert_many(
            [
                {"tag": "a", "v": 1},
                {"tag": None, "v": 2},
                {"tag": "b", "v": 3},
            ]
        )
        assert table.aggregate("tag", "count") == 2.0


@pytest.mark.parametrize("engine", ["columnar", "row"])
class TestInsertArraysOwnership:
    """The table owns what ``insert_arrays`` stored: no caller-held buffer
    can change a row behind ``version``, whatever dtype, stride or shape
    the caller's arrays had."""

    SCHEMA = Schema.of(("v", "INTEGER"), ("w", "REAL"))

    @staticmethod
    def _write(array, index, value):
        """A caller scribbling on its own buffer after the insert; an
        adopted (frozen) array refuses, any other is the caller's to write."""
        try:
            array[index] = value
        except ValueError as exc:
            assert "read-only" in str(exc)

    @pytest.mark.parametrize(
        "v, w, adopted",
        [
            # Narrow enough to be re-encoded: the table holds fresh arrays.
            (np.arange(10, dtype=np.int64), np.arange(10) / 4.0, False),
            # Full-width values stay int64 / float64: adopted and frozen.
            (np.arange(10, dtype=np.int64) << 40, np.arange(10) / 3.0, True),
            # The caller's dtype used to decide: these were always copied.
            (np.arange(10, dtype=np.int32), np.arange(10, dtype=np.float32), False),
        ],
        ids=["narrow", "canonical", "int32-float32"],
    )
    def test_caller_writes_after_insert_do_not_reach_the_table(
        self, engine, v, w, adopted
    ):
        v, w = v.copy(), w.copy()  # parametrized arrays are shared between runs
        table = Table("t", self.SCHEMA, engine=engine)
        table.insert_arrays({"v": v, "w": w})
        frozen = adopted and engine == "columnar"
        assert (v.flags.writeable, w.flags.writeable) == (not frozen, not frozen)
        version = table.version
        ints, reals = table.project("v"), table.project("w")
        top = table.top_k("v", 2)  # builds the summary the bug left stale
        self._write(v, 0, 10**6)
        self._write(w, 3, float("nan"))
        assert table.version == version
        assert table.top_k("v", 2) == top
        assert table.project("v") == ints
        assert table.project("w") == reals
        assert table.aggregate("w", "max") == max(reals)

    def test_strided_view_is_stored_contiguous_and_frees_its_base(self, engine):
        base_v = np.arange(2_000_000, dtype=np.int64) << 20
        base_w = np.arange(2_000_000) / 7.0
        table = Table("t", self.SCHEMA, engine=engine)
        table.insert_arrays({"v": base_v[::1000], "w": base_w[::1000]})
        expected = (base_v[::1000].tolist(), base_w[::1000].tolist())
        base_v[:] = -1
        base_w[:] = -1.0
        assert table.project("v") == expected[0]
        assert table.project("w") == expected[1]
        if engine == "columnar":
            for name in ("v", "w"):
                (chunk,) = table._engine._numeric(name).chunks
                assert chunk.codes.flags.c_contiguous
                assert chunk.codes.base is None  # pins nobody's 16 MB

    def test_two_dimensional_array_is_rejected_before_any_engine_sees_it(self, engine):
        table = Table("t", self.SCHEMA, engine=engine)
        table.insert_arrays({"v": np.arange(3), "w": np.arange(3) / 2.0})
        version = table.version
        with pytest.raises(SchemaError, match="1-D"):
            table.insert_arrays(
                {"v": np.arange(6).reshape(3, 2), "w": np.arange(3) / 2.0}
            )
        with pytest.raises(SchemaError, match="1-D"):
            table.insert_arrays({"v": np.arange(3), "w": np.zeros((3, 1))})
        assert table.version == version and len(table) == 3
        assert table.top_k("v", 5) == [2, 1, 0]
        assert table.scan()[0] == {"v": 0, "w": 0.0}


@pytest.mark.parametrize("engine", ["columnar", "row"])
class TestInsertArraysBlocks:
    """A column may arrive as an iterator of 1-D array blocks: each block is
    sealed as it arrives, and the batch lands whole, with one ``version``
    bump, or not at all."""

    SCHEMA = Schema.of(("v", "INTEGER"), ("w", "REAL"))

    def _party(self, engine):
        """A table in a database (so ``data_version`` is watched) holding
        three rows, its summaries built by reads."""
        database = PrivateDatabase("o", engine=engine)
        table = database.create_table("t", self.SCHEMA)
        table.insert_arrays({"v": np.arange(3), "w": np.arange(3) / 2.0})
        table.top_k("v", 2)
        table.aggregate("w", "sum")
        return database, table

    @staticmethod
    def _held(database, table):
        """Everything the table holds, summaries and arrays as bytes."""
        held = [len(table), table.version, database.data_version, repr(table.scan())]
        if table.engine_name == "columnar":
            for name in ("v", "w"):
                column = table._engine._numeric(name)
                summary = column._summary
                held.append((
                    [(run.encoding, run.codes.tobytes()) for run in column.chunks],
                    column._folded,
                    summary.count,
                    repr(summary.total),
                    summary.largest.tobytes(),
                    summary.smallest.tobytes(),
                ))
        return held

    def test_a_stream_that_fails_after_its_first_block_lands_nothing(self, engine):
        database, table = self._party(engine)
        before = self._held(database, table)

        def blocks():
            yield np.arange(4)
            raise RuntimeError("the source went away")

        with pytest.raises(RuntimeError, match="went away"):
            table.insert_arrays({"w": iter([np.ones(2), np.ones(2)]), "v": blocks()})
        assert self._held(database, table) == before

    def test_ragged_totals_name_the_column(self, engine):
        database, table = self._party(engine)
        before = self._held(database, table)
        with pytest.raises(
            SchemaError, match=r"ragged column batch: 'w' has 5 rows, expected 4"
        ):
            table.insert_arrays([
                ("v", iter([np.arange(2), np.arange(2)])),
                ("w", iter([np.ones(3), np.ones(2)])),
            ])
        with pytest.raises(SchemaError, match=r"'v' has 0 rows, expected 3"):
            table.insert_arrays([("w", np.ones(3)), ("v", iter([]))])
        assert self._held(database, table) == before

    def test_a_two_dimensional_block_is_refused(self, engine):
        database, table = self._party(engine)
        before = self._held(database, table)
        with pytest.raises(SchemaError, match=r"'v': expected a 1-D array, got shape"):
            table.insert_arrays({
                "w": np.ones(6),
                "v": iter([np.arange(2), np.zeros((2, 2), dtype=np.int64)]),
            })
        assert self._held(database, table) == before

    def test_an_iterator_of_scalars_is_refused_before_any_row_lands(self, engine):
        database, table = self._party(engine)
        before = self._held(database, table)
        with pytest.raises(
            SchemaError, match=r"'v': expected a stream of 1-D array blocks.*'int'"
        ):
            table.insert_arrays({"w": np.ones(3), "v": (i for i in range(3))})
        with pytest.raises(SchemaError, match=r"'w':.*a block of type 'list'"):
            table.insert_arrays({"v": np.arange(2), "w": iter([[0.5, 1.5]])})
        assert self._held(database, table) == before

    def test_an_empty_stream_beside_empty_columns_is_a_no_op(self, engine):
        database, table = self._party(engine)
        before = self._held(database, table)
        assert table.insert_arrays({"v": iter([]), "w": np.empty(0)}) == 0
        empty_blocks = iter([np.empty(0), np.empty(0)])
        assert table.insert_arrays({"v": [], "w": empty_blocks}) == 0
        assert self._held(database, table) == before

    def test_multi_block_columns_read_back_as_one_batch(self, engine):
        v_blocks = [
            np.array([1, -2, 3]),
            np.array([2**40, -(2**62)]),
            np.array([300, -300, 7, 7], dtype=np.int32),
        ]
        # Cents, then raw doubles, then a -0.0: the last block spills ``w``.
        w_blocks = [np.array([0.25, 0.5, -0.75]), np.array([1 / 3, 2**-30, 1e6]),
                    np.array([-0.0, 2.5, 1.5])]
        blocked = Table("t", self.SCHEMA, engine=engine)
        assert blocked.insert_arrays({"v": iter(v_blocks), "w": iter(w_blocks)}) == 9
        assert blocked.version == 1
        # The reference: the row store, fed the same rows one batch of rows.
        whole = Table("t", self.SCHEMA, engine="row")
        whole.insert_many(
            {"v": v, "w": w}
            for v, w in zip(np.concatenate(v_blocks).tolist(),
                            np.concatenate(w_blocks).tolist())
        )
        for name in ("v", "w"):
            assert repr(blocked.project(name)) == repr(whole.project(name))
            for k in (1, 4, 100):
                assert repr(blocked.top_k(name, k)) == repr(whole.top_k(name, k))
                assert repr(blocked.bottom_k(name, k)) == repr(whole.bottom_k(name, k))
            for func in ("max", "min", "sum", "avg", "count"):
                assert repr(blocked.aggregate(name, func)) == repr(
                    whole.aggregate(name, func)
                )
        assert repr(blocked.scan()) == repr(whole.scan())
        if engine == "columnar":
            assert blocked._engine.encodings()["v"] == "int8+int64+int16"
            assert blocked._engine._numeric("w").exact is not None


def test_full_column_reads_keep_no_decoded_copy():
    """A read that decodes a whole column (``project``, a ``k`` past
    the summary) decodes it for that read only: a coded column keeps its
    codes and its summary, never an 8 B/row copy beside them.  While a cache
    held those copies, these reads left 3.20 MB resident."""
    table = lineitem_database("p0", seed=0, rows=200_000).table(TPCH_TABLE)
    table.top_k(TPCH_ATTRIBUTE, 5)  # the first read builds the summary
    nbytes = table.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for name in ("l_discount", "l_extendedprice", "l_quantity"):
            table.project(name)
        table.top_k("l_extendedprice", 100)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept <= 100_000, kept
    assert table.nbytes == nbytes == 3_001_024


# -- rows enter as columns ------------------------------------------------------


class Level(enum.IntEnum):
    """An int subclass: accepted by an INTEGER or REAL column, but only
    ``Column.validate`` (not the batch's one type pass) can say so."""

    HIGH = 7


INTS = st.one_of(st.integers(-(2**40), 2**40), st.sampled_from([Level.HIGH, 2**70]))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([-0.0, math.nan]),
)
TEXTS = st.sampled_from(["x", "", "east"])
#: Every kind of value a caller can hand a column, valid or not for it.
VALUES = st.one_of(INTS, FLOATS, TEXTS, st.booleans(), st.none())
#: What a column of each type accepts (``None`` aside), so that a drawn
#: batch is often accepted whole.
ACCEPTED = {"INTEGER": INTS, "REAL": st.one_of(FLOATS, INTS), "TEXT": TEXTS}
NAMES = ("a", "b", "c")


@st.composite
def schemas(draw) -> Schema:
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    return Schema(
        tuple(
            Column(
                name,
                draw(st.sampled_from(("INTEGER", "REAL", "TEXT"))),
                nullable=draw(st.booleans()),
            )
            for name in names
        )
    )


@st.composite
def batches(draw, schema: Schema) -> list[dict]:
    """Up to five rows; a key is mostly a value the column accepts, else
    missing or any value at all, and now and then a row has a key the
    schema lacks."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {}
        for column in schema.columns:
            kind = draw(st.sampled_from(("accepted",) * 6 + ("missing", "any")))
            if kind != "missing":
                row[column.name] = draw(ACCEPTED[column.type] if kind == "accepted" else VALUES)
        if draw(st.integers(0, 11)) == 0:
            row["zz"] = draw(VALUES)
        rows.append(row)
    return rows


def _model_error(schema: Schema, row: dict) -> str | None:
    """``Schema.validate_row``'s verdict on one row: its message, or None."""
    try:
        schema.validate_row(row)
    except SchemaError as error:
        return str(error)
    return None


def _same(values: list, expected: list) -> bool:
    """Equal value by value, of the same type, with NaN equal to NaN and
    ``-0.0`` told from ``0.0``."""
    return len(values) == len(expected) and all(
        type(v) is type(e) and (repr(v) == repr(e) if isinstance(e, float) else v == e)
        for v, e in zip(values, expected)
    )


def _first_row(schema: Schema) -> dict:
    return {
        c.name: {"INTEGER": 1, "REAL": 0.5, "TEXT": "first"}[c.type]
        for c in schema.columns
    }


@pytest.mark.parametrize("engine", ["columnar", "row"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_insert_many_matches_validate_row_applied_row_by_row(engine, data):
    """The batch is accepted exactly when ``Schema.validate_row`` accepts
    every row; accepted, the table reads back the model's rows (values and
    types); refused, it raises ``SchemaError`` — with the model's message
    when one row is bad — and the table and its ``version`` do not move."""
    schema = data.draw(schemas())
    rows = data.draw(batches(schema))
    table = Table("t", schema, engine=engine)
    table.insert(_first_row(schema))
    before, version = table.scan(), table.version
    errors = [e for e in (_model_error(schema, row) for row in rows) if e]
    consumed = []

    def stream():
        for row in rows:
            consumed.append(row)
            yield row

    if errors:
        with pytest.raises(SchemaError) as raised:
            table.insert_many(stream())
        if len(errors) == 1:
            assert str(raised.value) == errors[0]
        assert table.version == version
        assert len(table) == len(before)
        for name in schema.names:
            assert _same(table.project(name), [row[name] for row in before])
        return
    assert table.insert_many(stream()) == len(rows)
    assert consumed == rows  # one pass, every row
    expected = before + [{name: row.get(name) for name in schema.names} for row in rows]
    assert table.version == version + (1 if rows else 0)
    assert len(table) == len(expected)
    scanned = table.scan()
    assert [list(row) for row in scanned] == [list(schema.names)] * len(expected)
    for name in schema.names:
        column = [row[name] for row in expected]
        assert _same(table.project(name), column), name
        assert _same([row[name] for row in scanned], column), name


@pytest.mark.parametrize("engine", ["columnar", "row"])
def test_a_clean_batch_validates_by_column_type_pass_alone(engine, monkeypatch):
    """A clean 1,000-row batch makes no ``Column.validate`` call (one type
    pass per column clears it) and rebuilds no ``Schema.names``."""
    schema = Schema.of(
        ("id", "INTEGER"), ("price", "REAL"), Column("tag", "TEXT", nullable=True)
    )
    table = Table("t", schema, engine=engine)
    names = schema.names
    calls = {"validate": 0, "schema": 0}
    validate, post_init = Column.validate, Schema.__post_init__

    def counted_validate(self, value):
        calls["validate"] += 1
        return validate(self, value)

    def counted_post_init(self):
        calls["schema"] += 1
        return post_init(self)

    monkeypatch.setattr(Column, "validate", counted_validate)
    monkeypatch.setattr(Schema, "__post_init__", counted_post_init)
    rows = [
        {"id": i, "price": i / 4, "tag": None if i % 3 else "t"} for i in range(1_000)
    ]
    assert table.insert_many(rows) == 1_000
    assert calls == {"validate": 0, "schema": 0}
    # ``names`` is data the schema holds, not a property computed per read.
    assert inspect.getattr_static(schema, "names") is names is schema.names
    assert table.project("price")[-1] == 999 / 4

    # An int subclass fails the type pass; only its column is then checked
    # value by value, and it is accepted.
    table.insert_many([{"id": Level.HIGH, "price": 1.0}, {"id": 3, "price": 2.0}])
    assert calls["validate"] == 2
    assert table.project("id")[-2:] == [7, 3]
    assert type(table.project("id")[-2]) is Level


def test_a_bad_row_in_a_large_batch_names_its_value_and_lands_nothing():
    table = Table("t", Schema.of(("v", "INTEGER"), ("w", "REAL")))
    rows = [{"v": i, "w": float(i)} for i in range(500)]
    rows[321] = {"v": 321, "w": "3.21"}
    with pytest.raises(SchemaError, match=r"column 'w' expects REAL, got '3.21'"):
        table.insert_many(rows)
    rows[321] = {"v": 321, "w": 3.21, "x": 0}
    with pytest.raises(SchemaError, match=r"unknown columns in row: \['x'\]"):
        table.insert_many(iter(rows))
    assert (len(table), table.version) == (0, 0)
    assert table.insert_many([]) == 0 and table.version == 0


# -- a list column's refusals: the one ingest path, every engine ---------------------


@pytest.mark.parametrize("engine", ["row", None, lambda schema: ColumnarEngine(schema)],
                         ids=["row", "columnar", "factory"])
@pytest.mark.parametrize(
    "columns, message",
    [
        ({"v": [1, True], "w": [0.5, 1.5]}, "column 'v' expects INTEGER, got True"),
        ({"v": [1, 2], "w": [0.5, None]}, "column 'w' is not nullable"),
        ({"v": [1, 2], "w": [0.5, "x"]}, "column 'w' expects REAL, got 'x'"),
        ({"v": [1, 2], "x": [3, 4]}, r"unknown columns in batch: ['x']"),
        ([("v", [1, 2]), ("v", [3, 4])], "column 'v' repeated in batch"),
        ({"v": [1, 2], "w": [0.5]}, "ragged column batch: 'w' has 1 rows, expected 2"),
        ({"v": [1, 2]}, "missing columns in batch: ['w']"),
    ],
    ids=["bool", "none", "text", "unknown", "repeated", "ragged", "missing"],
)
def test_a_refused_list_column_lands_nothing(engine, columns, message):
    database = PrivateDatabase("org", engine=engine)
    table = database.create_table("t", Schema.of(("v", "INTEGER"), ("w", "REAL")))
    table.insert_arrays({"v": [9], "w": [9.5]})
    before = (table.scan(), table.version, database.data_version)
    with pytest.raises(SchemaError) as refused:
        table.insert_arrays(columns)
    assert str(refused.value) == message
    assert (table.scan(), table.version, database.data_version) == before


@pytest.mark.parametrize("engine", ["row", None], ids=["row", "columnar"])
def test_an_int_enum_member_in_a_list_column_is_kept_as_itself(engine):
    table = Table("t", Schema.of(("v", "INTEGER")), engine=engine)
    assert table.insert_arrays({"v": [Level.HIGH, 3]}) == 2
    assert table.project("v") == [7, 3] and type(table.project("v")[0]) is Level
    assert table.top_k("v", 1) == [7]
