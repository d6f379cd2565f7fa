"""Unit tests for repro.database.database."""

import numpy as np
import pytest

from repro.database.database import PrivateDatabase, database_from_values
from repro.database.query import Domain, QueryError, TopKQuery
from repro.database.schema import Schema, SchemaError, common_query


@pytest.fixture
def db() -> PrivateDatabase:
    database = PrivateDatabase("acme")
    table = database.create_table("sales", Schema.of(("amount", "INTEGER")))
    table.insert_many({"amount": v} for v in [10, 500, 30, 999, 2])
    return database


class TestDDL:
    def test_owner_required(self):
        with pytest.raises(ValueError, match="owner"):
            PrivateDatabase("")

    def test_create_and_lookup(self, db: PrivateDatabase):
        assert "sales" in db
        assert db.table("sales").name == "sales"

    def test_duplicate_table_rejected(self, db: PrivateDatabase):
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table("sales", Schema.of(("x", "INTEGER")))

    def test_drop_table(self, db: PrivateDatabase):
        db.drop_table("sales")
        assert "sales" not in db

    def test_drop_missing_table(self, db: PrivateDatabase):
        with pytest.raises(SchemaError, match="no such table"):
            db.drop_table("ghost")


class TestDataVersion:
    def test_counter_follows_the_summed_formula(self):
        """``data_version`` is one counter now; its values are still those of
        ``ddl + sum(table.version)`` with a drop absorbing ``version + 1``."""
        database = PrivateDatabase("acme")
        schema = Schema.of(("amount", "INTEGER"))
        ddl = 0
        seen = [database.data_version]
        live = {}

        def check():
            assert database.data_version == ddl + sum(t.version for t in live.values())
            assert database.data_version > seen[-1]
            seen.append(database.data_version)

        sales = live["sales"] = database.create_table("sales", schema)
        ddl += 1
        check()
        sales.insert({"amount": 1})
        check()
        sales.insert_many([{"amount": 2}, {"amount": 3}])
        check()
        other = live["other"] = database.create_table("other", schema)
        ddl += 1
        check()
        other.insert_arrays({"amount": [4, 5]})
        check()
        assert sales.insert_many([]) == 0  # no rows, no bump
        assert database.data_version == seen[-1]
        ddl += sales.version + 1
        database.drop_table("sales")
        del live["sales"]
        check()
        # A handle to the dropped table no longer moves the database.
        sales.insert({"amount": 6})
        assert database.data_version == seen[-1]
        recreated = live["sales"] = database.create_table("sales", schema)
        ddl += 1
        check()
        recreated.insert({"amount": 7})
        other.insert({"amount": 8})
        check()


    def test_tables_do_not_point_back_at_their_database(self):
        """No reference cycle: dropping the last handle frees the column
        arrays at once, without waiting for the cycle collector."""
        import gc
        import weakref

        database = PrivateDatabase("acme")
        table = database.create_table("sales", Schema.of(("amount", "INTEGER")))
        table.insert({"amount": 1})
        engine = weakref.ref(table._engine)
        gc.disable()
        try:
            del table, database
            assert engine() is None
        finally:
            gc.enable()


class TestLocalTopK:
    def test_local_topk(self, db: PrivateDatabase):
        query = TopKQuery(table="sales", attribute="amount", k=2)
        assert db.local_topk(query) == [999, 500]

    def test_local_bottomk(self, db: PrivateDatabase):
        query = TopKQuery(table="sales", attribute="amount", k=2, smallest=True)
        assert db.local_topk(query) == [2, 10]

    def test_out_of_domain_value_rejected(self, db: PrivateDatabase):
        query = TopKQuery(
            table="sales", attribute="amount", k=1, domain=Domain(1, 100)
        )
        with pytest.raises(QueryError, match="outside the public domain"):
            db.local_topk(query)


class TestDatabaseFromValues:
    def test_builds_integer_table(self):
        db = database_from_values("x", [3, 1, 2])
        assert db.table("data").top_k("value", 2) == [3, 2]

    def test_builds_real_table_for_floats(self):
        db = database_from_values("x", [3.5, 1.0])
        assert db.table("data").schema.column("value").type == "REAL"

    def test_custom_table_and_attribute(self):
        db = database_from_values("x", [1], table="t", attribute="v")
        assert db.table("t").top_k("v", 1) == [1]

    def test_generator_input_is_materialized_once(self):
        # Regression: the values iterable was consumed twice (type sniff,
        # then insert), so a generator silently produced an empty table.
        db = database_from_values("x", (v for v in [3, 1, 2]))
        assert len(db.table("data")) == 3
        assert db.table("data").top_k("value", 2) == [3, 2]
        real = database_from_values("y", iter([1.5, 0.5]))
        assert real.table("data").schema.column("value").type == "REAL"
        assert len(real.table("data")) == 2

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_integer_array_builds_integer_table(self, engine):
        # Regression: the type sniff asked ``isinstance(v, int)`` of NumPy
        # ints, picked REAL, and then refused every value.
        db = database_from_values("a", np.arange(5), engine=engine)
        table = db.table("data")
        assert table.schema.column("value").type == "INTEGER"
        assert len(table) == 5 and table.version == 1 and db.data_version == 2
        top = table.top_k("value", 2)
        assert top == [4, 3] and all(type(v) is int for v in top)
        assert table.aggregate("value", "sum") == 10.0

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_float_array_builds_real_table(self, engine):
        db = database_from_values("a", np.array([2.5, -1.0, 0.0]), engine=engine)
        table = db.table("data")
        assert table.schema.column("value").type == "REAL"
        assert table.bottom_k("value", 3) == [-1.0, 0.0, 2.5]
        assert all(type(v) is float for v in table.top_k("value", 3))

    def test_integer_array_lands_as_sealed_array_runs(self):
        table = database_from_values("a", np.arange(-3, 300)).table("data")
        assert table._engine.encodings() == {"value": "int16"}

    def test_empty_list_builds_an_empty_table(self):
        db = database_from_values("a", [])
        table = db.table("data")
        assert table.schema.column("value").type == "INTEGER"
        assert len(table) == 0 and table.version == 0 and db.data_version == 1
        assert table.top_k("value", 3) == []

    @pytest.mark.parametrize("values", [[True, False], np.array([True, False])])
    def test_bool_values_are_refused(self, values):
        with pytest.raises(SchemaError, match="expects INTEGER, got True"):
            database_from_values("a", values)

    def test_two_dimensional_array_is_refused(self):
        with pytest.raises(SchemaError, match="1-D"):
            database_from_values("a", np.arange(6).reshape(2, 3))


class TestCommonQuery:
    def _db(self, owner: str, schema: Schema) -> PrivateDatabase:
        db = PrivateDatabase(owner)
        db.create_table("sales", schema)
        return db

    def test_accepts_matching_schemas(self):
        schema = Schema.of(("amount", "INTEGER"))
        dbs = [self._db(f"org{i}", schema) for i in range(3)]
        query = TopKQuery(table="sales", attribute="amount", k=1)
        assert common_query(dbs, query) is query

    def test_rejects_empty_database_list(self):
        query = TopKQuery(table="sales", attribute="amount", k=1)
        with pytest.raises(QueryError, match="no databases"):
            common_query([], query)

    def test_rejects_mismatched_schemas(self):
        a = self._db("a", Schema.of(("amount", "INTEGER")))
        b = self._db("b", Schema.of(("amount", "INTEGER"), ("extra", "TEXT")))
        query = TopKQuery(table="sales", attribute="amount", k=1)
        with pytest.raises(SchemaError, match="does not match peers"):
            common_query([a, b], query)

    def test_rejects_non_numeric_attribute(self):
        db = PrivateDatabase("a")
        db.create_table("sales", Schema.of(("amount", "TEXT")))
        query = TopKQuery(table="sales", attribute="amount", k=1)
        with pytest.raises(SchemaError, match="not numeric"):
            common_query([db], query)

    def test_rejects_missing_table(self):
        db = PrivateDatabase("a")
        query = TopKQuery(table="sales", attribute="amount", k=1)
        with pytest.raises(SchemaError, match="no such table"):
            common_query([db], query)
