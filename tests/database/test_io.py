"""Tests for CSV import/export of private databases."""

import csv

import pytest

from repro.database.database import PrivateDatabase
from repro.database.io import (
    TableIOError,
    database_from_csv_dir,
    load_csv_table,
    save_csv_table,
)
from repro.database.schema import Column, Schema

SCHEMA = Schema.of(("amount", "INTEGER"), ("store", "TEXT"))
REAL_SCHEMA = Schema.of(("v", "REAL"))


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoad:
    def test_load_basic(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "amount,store\n100,east\n250,west\n")
        db = PrivateDatabase("acme")
        table = load_csv_table(db, "sales", SCHEMA, path)
        assert len(table) == 2
        assert table.top_k("amount", 1) == [250]

    def test_header_order_insensitive(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "store,amount\neast,100\n")
        db = PrivateDatabase("acme")
        table = load_csv_table(db, "sales", SCHEMA, path)
        assert table.scan()[0] == {"amount": 100, "store": "east"}

    def test_wrong_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "amount,region\n100,east\n")
        with pytest.raises(TableIOError, match="does not match schema"):
            load_csv_table(PrivateDatabase("acme"), "sales", SCHEMA, path)

    def test_unparsable_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "amount,store\nlots,east\n")
        with pytest.raises(TableIOError, match="cannot parse"):
            load_csv_table(PrivateDatabase("acme"), "sales", SCHEMA, path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "")
        with pytest.raises(TableIOError, match="no header"):
            load_csv_table(PrivateDatabase("acme"), "sales", SCHEMA, path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TableIOError, match="cannot read"):
            load_csv_table(
                PrivateDatabase("acme"), "sales", SCHEMA, tmp_path / "ghost.csv"
            )

    def test_bad_row_leaves_database_unchanged(self, tmp_path):
        path = write_csv(tmp_path / "sales.csv", "amount,store\n100,east\nbad,west\n")
        db = PrivateDatabase("acme")
        with pytest.raises(TableIOError):
            load_csv_table(db, "sales", SCHEMA, path)
        assert "sales" not in db

    def test_nullable_cells(self, tmp_path):
        schema = Schema.of(Column("amount", "INTEGER", nullable=True))
        path = write_csv(tmp_path / "t.csv", "amount\n5\n\n7\n")
        db = PrivateDatabase("acme")
        table = load_csv_table(db, "t", schema, path)
        assert table.project("amount") == [5, 7]

    def test_empty_non_nullable_rejected(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "amount,store\n,east\n")
        with pytest.raises(TableIOError, match="non-nullable"):
            load_csv_table(PrivateDatabase("acme"), "t", SCHEMA, path)

    def test_row_longer_than_the_header_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "sales.csv", "amount,store\n100,east\n250,west,999,888\n"
        )
        db = PrivateDatabase("acme")
        with pytest.raises(TableIOError, match=r"sales\.csv:3: 2 more cell"):
            load_csv_table(db, "sales", SCHEMA, path)
        assert "sales" not in db

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_real_rejected(self, tmp_path, cell):
        path = write_csv(tmp_path / "t.csv", f"v\n1.5\n{cell}\n")
        db = PrivateDatabase("acme")
        with pytest.raises(TableIOError, match="non-finite"):
            load_csv_table(db, "t", REAL_SCHEMA, path)
        assert "t" not in db

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "sales.csv"
        path.write_bytes(b"amount,store\n100,\xff\xfe\n")
        with pytest.raises(TableIOError, match="cannot read"):
            load_csv_table(PrivateDatabase("acme"), "sales", SCHEMA, path)

    def test_malformed_csv_rejected(self, tmp_path):
        oversized = "x" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path / "sales.csv", f"amount,store\n100,{oversized}\n")
        with pytest.raises(TableIOError, match="cannot read"):
            load_csv_table(PrivateDatabase("acme"), "sales", SCHEMA, path)


class TestRoundTrip:
    def test_save_and_reload(self, tmp_path):
        db = PrivateDatabase("acme")
        table = db.create_table("sales", SCHEMA)
        table.insert_many(
            [{"amount": 100, "store": "east"}, {"amount": 250, "store": "west"}]
        )
        path = save_csv_table(table, tmp_path / "out" / "sales.csv")
        reloaded = load_csv_table(PrivateDatabase("other"), "sales", SCHEMA, path)
        assert reloaded.scan() == table.scan()

    def test_none_round_trips_as_empty(self, tmp_path):
        schema = Schema.of(Column("amount", "REAL", nullable=True))
        db = PrivateDatabase("acme")
        table = db.create_table("t", schema)
        table.insert_many([{"amount": 1.5}, {"amount": None}])
        path = save_csv_table(table, tmp_path / "t.csv")
        reloaded = load_csv_table(PrivateDatabase("b"), "t", schema, path)
        assert reloaded.project("amount") == [1.5, None]


class TestDirectoryLoad:
    def test_multi_table_database(self, tmp_path):
        write_csv(tmp_path / "sales.csv", "amount,store\n100,east\n")
        write_csv(tmp_path / "returns.csv", "amount,store\n7,east\n")
        db = database_from_csv_dir(
            "acme", tmp_path, {"sales": SCHEMA, "returns": SCHEMA}
        )
        assert "returns" in db and "sales" in db

    @pytest.mark.parametrize(
        "cells", [("5", "nan", "7"), ("nan", "5", "7"), ("5", "7", "nan")],
        ids=["middle", "first", "last"],
    )
    def test_a_nan_is_refused_wherever_its_row_sits(self, tmp_path, cells):
        """A NaN has no order, so once loaded the answer depended on its row.

        In a federation with parties ``[3, 9]`` and ``[4, 8]`` under
        ``exact_config()``: ``MAX(v)`` answered 9.0 with the NaN in the middle
        or last and refused (``QueryError``, outside the public domain) with
        it first; ``TOP 2`` answered only with it last; ``SUM(v)`` was ``nan``
        in all three.  The party never gets as far as registering now.
        """
        write_csv(tmp_path / "data.csv", "v\n" + "".join(f"{c}\n" for c in cells))
        with pytest.raises(TableIOError, match="non-finite value 'nan'"):
            database_from_csv_dir("p0", tmp_path, {"data": REAL_SCHEMA})

    def test_integration_with_protocol(self, tmp_path):
        from repro.core.driver import RunConfig, run_topk_query
        from repro.database.query import TopKQuery

        databases = []
        for i, amounts in enumerate([[100, 900], [9000], [50, 7000]]):
            rows = "amount,store\n" + "".join(f"{a},s{i}\n" for a in amounts)
            write_csv(tmp_path / f"org{i}.csv", rows)
            db = PrivateDatabase(f"org{i}")
            load_csv_table(db, "sales", SCHEMA, tmp_path / f"org{i}.csv")
            databases.append(db)
        query = TopKQuery(table="sales", attribute="amount", k=2)
        result = run_topk_query(databases, query, RunConfig(seed=3))
        assert result.final_vector == [9000.0, 7000.0]
