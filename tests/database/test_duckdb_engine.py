"""DuckDB engine parity (optional dependency; skipped cleanly when absent).

The DuckDB engine pushes extraction down as SQL.  ORDER BY/LIMIT, MIN/MAX,
and COUNT are exact; SUM/AVG over DOUBLE may differ from the row store's
sequential float sum in the last ulp (documented), so those assert
approximate equality.  REAL columns are stored as DOUBLE, so integer
values inserted into them come back as floats — value-equal to the row
store, type-normalized.
"""

import pytest

duckdb = pytest.importorskip("duckdb")

from repro.database import (  # noqa: E402
    Column,
    PrivateDatabase,
    QueryError,
    Schema,
    StorageUnavailable,
    Table,
    TopKQuery,
    duckdb_available,
)
from repro.database.tpch import lineitem_database, price_query  # noqa: E402


def make_pair(schema):
    return Table("t", schema, engine="row"), Table("t", schema, engine="duckdb")


def test_duckdb_available_flag():
    assert duckdb_available() is True


def test_exact_topk_and_counts_with_nulls():
    schema = Schema.of(Column("v", "INTEGER", nullable=True), ("tag", "TEXT"))
    row, duck = make_pair(schema)
    rows = [
        {"v": 5, "tag": "a"},
        {"v": None, "tag": "b"},
        {"v": 9, "tag": "c"},
        {"v": 9, "tag": "d"},
        {"v": -3, "tag": "e"},
    ]
    row.insert_many(rows)
    duck.insert_many(rows)
    assert len(duck) == 5
    assert row.top_k("v", 3) == duck.top_k("v", 3) == [9, 9, 5]
    assert row.bottom_k("v", 2) == duck.bottom_k("v", 2) == [-3, 5]
    assert row.numeric_values("v") == duck.numeric_values("v")
    assert row.aggregate("v", "count") == duck.aggregate("v", "count") == 4.0
    assert row.aggregate("v", "max") == duck.aggregate("v", "max") == 9
    assert row.aggregate("v", "min") == duck.aggregate("v", "min") == -3
    assert row.scan() == duck.scan()
    assert row.project("tag") == duck.project("tag")


def test_sum_avg_close_and_empty_none():
    schema = Schema.of(("x", "REAL"))
    row, duck = make_pair(schema)
    assert duck.aggregate("x", "sum") is None
    with pytest.raises(ValueError, match="unknown aggregate"):
        duck.aggregate("x", "median")  # refused before any engine, even empty
    values = [0.1 * i for i in range(100)]
    row.insert_many({"x": v} for v in values)
    duck.insert_many({"x": v} for v in values)
    assert duck.aggregate("x", "sum") == pytest.approx(
        row.aggregate("x", "sum"), rel=1e-12
    )
    assert duck.aggregate("x", "avg") == pytest.approx(
        row.aggregate("x", "avg"), rel=1e-12
    )
    with pytest.raises(ValueError, match="unknown aggregate"):
        duck.aggregate("x", "median")


def test_domain_check_pushdown():
    db = PrivateDatabase("o", engine="duckdb")
    db.create_table("data", Schema.of(("value", "INTEGER")))
    db.insert_many("data", [{"value": v} for v in (5, 9_000, 42)])
    q = TopKQuery(table="data", attribute="value", k=2)
    assert db.local_topk(q) == [9_000, 42]
    db.insert("data", {"value": 99_999})  # outside the paper domain
    with pytest.raises(QueryError, match="outside the public domain"):
        db.local_topk(q)


def test_tpch_on_duckdb_matches_row_store():
    q = price_query(10)
    row = lineitem_database("p0", seed=33, rows=20_000, engine="row")
    duck = lineitem_database("p0", seed=33, rows=20_000, engine="duckdb")
    assert duck.local_topk(q) == row.local_topk(q)
    assert duck.data_version == row.data_version


def test_persistent_path_survives_reopen(tmp_path):
    path = tmp_path / "party.duckdb"
    schema = Schema.of(("value", "INTEGER"))
    first = Table("data", schema, engine=f"duckdb:{path}")
    first.insert_many({"value": v} for v in (7, 3, 9))
    assert len(first) == 3
    del first

    # A fresh engine over the same file adopts the stored rows.
    reopened = Table("data", schema, engine=f"duckdb:{path}")
    assert len(reopened) == 3
    assert reopened.top_k("value", 2) == [9, 7]
    reopened.insert({"value": 11})
    assert len(reopened) == 4

    third = Table("data", schema, engine=f"duckdb:{path}")
    assert third.top_k("value", 1) == [11]


def test_persistent_path_database_reopen(tmp_path):
    path = tmp_path / "p0.duckdb"
    db = PrivateDatabase("p0")
    db.create_table(
        "data", Schema.of(("value", "INTEGER")), engine=f"duckdb:{path}"
    )
    db.insert_many("data", [{"value": v} for v in (5, 9_000, 42)])
    q = TopKQuery(table="data", attribute="value", k=2)
    assert db.local_topk(q) == [9_000, 42]

    db2 = PrivateDatabase("p0")
    db2.create_table(
        "data", Schema.of(("value", "INTEGER")), engine=f"duckdb:{path}"
    )
    assert db2.local_topk(q) == [9_000, 42]


def test_persistent_path_schema_mismatch_is_refused(tmp_path):
    path = tmp_path / "clash.duckdb"
    Table("data", Schema.of(("value", "INTEGER")), engine=f"duckdb:{path}")
    with pytest.raises(ValueError, match="does not match"):
        Table("data", Schema.of(("other", "REAL")), engine=f"duckdb:{path}")


def test_unavailable_error_is_clear(monkeypatch):
    import builtins

    real_import = builtins.__import__

    def no_duckdb(name, *args, **kwargs):
        if name == "duckdb":
            raise ImportError("No module named 'duckdb'")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", no_duckdb)
    assert duckdb_available() is False
    with pytest.raises(StorageUnavailable, match="duckdb"):
        Table("t", Schema.of(("v", "INTEGER")), engine="duckdb")
