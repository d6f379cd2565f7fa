"""Unit tests for repro.database.schema."""

import copy
import dataclasses
import pickle

import pytest

from repro.database.schema import Column, Schema, SchemaError


class TestColumn:
    def test_defaults_to_integer(self):
        assert Column("price").type == "INTEGER"

    def test_rejects_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown column type"):
            Column("price", "DECIMAL")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError, match="invalid column name"):
            Column("")

    def test_rejects_name_with_spaces(self):
        with pytest.raises(SchemaError, match="invalid column name"):
            Column("unit price")

    def test_underscore_names_allowed(self):
        assert Column("unit_price").name == "unit_price"

    def test_integer_validate_accepts_int(self):
        Column("x", "INTEGER").validate(5)

    def test_integer_validate_rejects_float(self):
        with pytest.raises(SchemaError, match="expects INTEGER"):
            Column("x", "INTEGER").validate(5.0)

    def test_integer_validate_rejects_bool(self):
        # bool is an int subclass; storing True in a numeric column is a bug.
        with pytest.raises(SchemaError, match="expects INTEGER"):
            Column("x", "INTEGER").validate(True)

    def test_real_accepts_int_and_float(self):
        column = Column("x", "REAL")
        column.validate(5)
        column.validate(5.5)

    def test_text_rejects_number(self):
        with pytest.raises(SchemaError, match="expects TEXT"):
            Column("x", "TEXT").validate(7)

    def test_null_rejected_when_not_nullable(self):
        with pytest.raises(SchemaError, match="not nullable"):
            Column("x").validate(None)

    def test_null_accepted_when_nullable(self):
        Column("x", nullable=True).validate(None)

    def test_is_numeric(self):
        assert Column("x", "INTEGER").is_numeric
        assert Column("x", "REAL").is_numeric
        assert not Column("x", "TEXT").is_numeric


class TestSchema:
    def test_of_builds_from_pairs(self):
        schema = Schema.of(("a", "INTEGER"), ("b", "TEXT"))
        assert schema.names == ("a", "b")

    def test_of_accepts_column_objects(self):
        schema = Schema.of(Column("a"), ("b", "REAL"))
        assert schema.column("b").type == "REAL"

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema.of(("a", "INTEGER"), ("a", "TEXT"))

    def test_contains(self):
        schema = Schema.of(("a", "INTEGER"))
        assert "a" in schema
        assert "z" not in schema

    def test_len(self):
        assert len(Schema.of(("a", "INTEGER"), ("b", "TEXT"))) == 2

    def test_unknown_column_lookup_raises(self):
        with pytest.raises(SchemaError, match="no such column"):
            Schema.of(("a", "INTEGER")).column("b")

    def test_validate_row_ok(self):
        schema = Schema.of(("a", "INTEGER"), ("b", "TEXT"))
        schema.validate_row({"a": 1, "b": "x"})

    def test_validate_row_unknown_column(self):
        schema = Schema.of(("a", "INTEGER"))
        with pytest.raises(SchemaError, match="unknown columns"):
            schema.validate_row({"a": 1, "zz": 2})

    def test_validate_row_missing_non_nullable(self):
        schema = Schema.of(("a", "INTEGER"))
        with pytest.raises(SchemaError, match="not nullable"):
            schema.validate_row({})

    def test_compatibility_order_insensitive(self):
        one = Schema.of(("a", "INTEGER"), ("b", "TEXT"))
        two = Schema.of(("b", "TEXT"), ("a", "INTEGER"))
        assert one.is_compatible_with(two)

    def test_compatibility_type_sensitive(self):
        one = Schema.of(("a", "INTEGER"))
        two = Schema.of(("a", "REAL"))
        assert not one.is_compatible_with(two)

    def test_compatibility_name_sensitive(self):
        one = Schema.of(("a", "INTEGER"))
        two = Schema.of(("b", "INTEGER"))
        assert not one.is_compatible_with(two)


class TestDerivedFields:
    """The value types a column accepts are derived once, and are not
    identity: equality, hashing, ``repr``, pickling and
    ``dataclasses.replace`` see the declared fields only."""

    @pytest.mark.parametrize(
        "column, accepts",
        [
            (Column("a"), {int}),
            (Column("a", "REAL"), {int, float}),
            (Column("a", "TEXT", nullable=True), {str, type(None)}),
        ],
    )
    def test_accepted_types(self, column, accepts):
        assert column.accepts == accepts

    def test_equality_hash_and_repr_ignore_them(self):
        one, two = Column("a", "REAL"), Column("a", "REAL")
        object.__setattr__(two, "accepts", frozenset())
        assert one == two and hash(one) == hash(two)
        assert repr(one) == "Column(name='a', type='REAL', nullable=False)"
        schema = Schema((one,))
        assert schema == Schema((two,)) and hash(schema) == hash(Schema((two,)))
        assert repr(schema) == f"Schema(columns=({one!r},))"

    @pytest.mark.parametrize(
        "clone", [pickle.loads, copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_copy_derives_them_afresh(self, clone):
        schema = Schema.of(("a", "INTEGER"), Column("b", "TEXT", nullable=True))
        if clone is pickle.loads:
            payload = pickle.dumps(schema)
            assert b"accepts" not in payload and b"by_name" not in payload
            assert b"signature" not in payload
            copied = pickle.loads(payload)
        else:
            copied = clone(schema)
        assert copied == schema and copied.names == ("a", "b")
        assert copied.column("b").accepts == {str, type(None)}
        assert copied.by_name == {"a": copied.columns[0], "b": copied.columns[1]}
        assert copied.signature == {("a", "INTEGER"), ("b", "TEXT")}

    def test_compatibility_compares_the_derived_signature(self):
        # Reordering the columns keeps the signature; retyping one moves it.
        one = Schema.of(("a", "INTEGER"), ("b", "TEXT"))
        reordered = Schema.of(("b", "TEXT"), ("a", "INTEGER"))
        retyped = Schema.of(("a", "REAL"), ("b", "TEXT"))
        assert one.signature == reordered.signature
        assert one.is_compatible_with(reordered)
        assert one.signature != retyped.signature
        assert not one.is_compatible_with(retyped)

    def test_replace_derives_them_from_the_new_fields(self):
        column = dataclasses.replace(Column("a"), type="REAL", nullable=True)
        assert column.accepts == {int, float, type(None)}
        with pytest.raises(ValueError):
            dataclasses.replace(column, accepts=frozenset())
