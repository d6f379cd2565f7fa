"""A table is built in one step, and a table with no rows builds nothing.

The value types a column accepts without a per-value check are derived
once, by ``Column``; ``Table`` builds the default columnar engine itself, and a
list column goes from ``insert_arrays`` to the column's pending tail with one
engine call.  A columnar engine builds its column objects with its first
batch: an empty table holds none, and no read of it builds one.  A
topology-built federation makes one ``Schema`` for all its parties.  The work
is pinned as a count of Python-level calls (a ``sys.setprofile`` hook, as
``scripts/call_census.py`` installs), not as a timing.  A party
``sharding.topology`` builds is pinned field for field on the row engine,
the columnar engine and a factory engine.
"""

from __future__ import annotations

import functools
import sys

import numpy as np
import pytest

from repro.database.database import PrivateDatabase
from repro.database.engines import AGGREGATES, SUMMARY_ROWS, ColumnarEngine
from repro.database.schema import Column, Schema, SchemaError
from repro.sharding import topology


def _entered(action) -> list[str]:
    """The Python functions ``action`` enters (qualified names), in order,
    ``action`` aside."""
    names: list[str] = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return names[1:]


@pytest.fixture
def database() -> PrivateDatabase:
    database = PrivateDatabase("org")
    # A first build, so that nothing lazy is left for the counted ones.
    database.create_table("warm", SCHEMA).insert_arrays({"value": [1, 2]})
    return database


SCHEMA = Schema.of(("value", "INTEGER"))


def test_a_loaded_one_column_table_costs_six_python_calls(database):
    calls = _entered(
        lambda: database.create_table("t", SCHEMA).insert_arrays({"value": [3, 4]})
    )
    assert len(calls) <= 6, calls
    assert database.table("t").project("value") == [3, 4]


def test_an_empty_table_costs_three_python_calls(database):
    calls = _entered(lambda: database.create_table("t", SCHEMA))
    assert len(calls) <= 3, calls
    assert database.table("t")._engine._columns is None


# -- an empty table ------------------------------------------------------------

#: Every column type, nullable or not: ``encodings`` names the numeric ones.
WIDE = Schema.of(
    ("i", "INTEGER"), ("x", "REAL"), ("s", "TEXT"),
    Column("n", "INTEGER", nullable=True), Column("r", "REAL", nullable=True),
)
NUMERIC = ("i", "x", "n", "r")
KS = (1, 3, SUMMARY_ROWS, SUMMARY_ROWS + 1, 10**6)


def _reads(table) -> list:
    """Every read a caller can make of a table, in one list."""
    out: list = [len(table), list(table), table.scan(), table.nbytes]
    for name in WIDE.names:
        out.append(table.project(name))
        out.append(table.aggregate(name, "count"))
    for name in NUMERIC:
        for k in KS:
            out += [table.top_k(name, k), table.bottom_k(name, k)]
        out += [table.aggregate(name, func) for func in AGGREGATES]
    return out


#: What the parent's engines answered on an empty ``WIDE`` table: ``None``
#: for max/min/sum/avg, ``0.0`` for a count, nothing for every list.
EMPTY_READS = [0, [], [], 0] + [[], 0.0] * len(WIDE.names) + (
    [[], []] * len(KS) + [None, None, None, None, 0.0]
) * len(NUMERIC)


@pytest.mark.parametrize("engine", ["row", "columnar"])
def test_an_empty_table_answers_every_read_as_it_always_did(engine):
    table = PrivateDatabase("org", engine=engine).create_table("t", WIDE)
    reads = _reads(table)
    if engine == "row":  # no array storage to report
        assert reads[3] is None
        reads[3] = 0
    assert reads == EMPTY_READS
    assert [type(value) for value in reads] == [type(value) for value in EMPTY_READS]
    if engine == "columnar":
        assert table._engine.encodings() == {name: "" for name in NUMERIC}


def test_a_read_of_an_empty_table_builds_no_column():
    table = PrivateDatabase("org").create_table("t", WIDE)
    engine = table._engine
    calls = _entered(lambda: (_reads(table), engine.encodings()))
    built = [name for name in calls if name.endswith("Column.__init__")]
    assert built == [] and engine._columns is None, calls
    # An abandoned batch seals its arrays, and builds no column either.
    with pytest.raises(SchemaError):
        table.insert_arrays({"i": np.arange(3), "x": np.ones(2)})
    assert engine._columns is None and len(table) == 0


# -- a topology party, pinned --------------------------------------------------------

#: ``build_topology(shards=2, parties_per_shard=3, tables=4, rows_per_table=4,
#: partitioned=1, seed=11)``: per party, its ``data_version`` and per table
#: (rows, ``Table.version``, the values, ``nbytes`` as built, then
#: ``nbytes`` and the column's encoding once a read has sealed the tail).
PARTIES = {
    "org00x00": (6, {
        "part00": (1, 1, [8826], 0, 2, "int16"),
        "t00": (2, 1, [7412, 7403], 0, 4, "int16"),
        "t01": (2, 1, [8321, 3026], 0, 4, "int16"),
    }),
    "org00x01": (6, {
        "part00": (1, 1, [687], 0, 2, "int16"),
        "t00": (1, 1, [9172], 0, 2, "int16"),
        "t01": (1, 1, [9624], 0, 2, "int16"),
    }),
    "org00x02": (6, {
        "part00": (1, 1, [9756], 0, 2, "int16"),
        "t00": (1, 1, [7630], 0, 2, "int16"),
        "t01": (1, 1, [3112], 0, 2, "int16"),
    }),
    "org01x00": (6, {
        "part00": (1, 1, [6491], 0, 2, "int16"),
        "t02": (2, 1, [8388, 1543], 0, 4, "int16"),
        "t03": (2, 1, [7317, 1486], 0, 4, "int16"),
    }),
    "org01x01": (5, {
        "part00": (0, 0, [], 0, 0, ""),
        "t02": (1, 1, [7795], 0, 2, "int16"),
        "t03": (1, 1, [4971], 0, 2, "int16"),
    }),
    "org01x02": (5, {
        "part00": (0, 0, [], 0, 0, ""),
        "t02": (1, 1, [3051], 0, 2, "int16"),
        "t03": (1, 1, [2324], 0, 2, "int16"),
    }),
}


def _party_fields(database: PrivateDatabase, tables) -> tuple:
    fields = {}
    for name in tables:
        table = database.table(name)
        built = table.nbytes
        values = table.project("value")
        engine = table._engine
        encoding = engine.encodings()["value"] if hasattr(engine, "encodings") else None
        fields[name] = (
            len(table), table.version, values, built, table.nbytes, encoding
        )
    return database.data_version, fields


@pytest.mark.parametrize(
    "engine",
    [
        pytest.param("row", id="row"),
        pytest.param(None, id="columnar"),
        pytest.param(lambda schema: ColumnarEngine(schema), id="factory"),
    ],
)
def test_a_topology_party_is_built_as_it_always_was(engine, monkeypatch):
    monkeypatch.setattr(
        topology, "PrivateDatabase", functools.partial(PrivateDatabase, engine=engine)
    )
    layout = topology.build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=4, partitioned=1,
        seed=11,
    )
    built = {}
    for shard, parties in enumerate(layout.assignments):
        tables = layout.shard_tables(shard)
        for owner in sorted(parties):
            database = topology._build_party(owner, tables, parties[owner], SCHEMA)
            built[owner] = _party_fields(database, tables)
    assert built == _expected(engine)


def _expected(engine) -> dict:
    if engine != "row":
        return PARTIES
    # No array storage to report.
    return {
        owner: (version, {
            name: (*fields[:3], None, None, None) for name, fields in tables.items()
        })
        for owner, (version, tables) in PARTIES.items()
    }


@pytest.mark.parametrize("engine", ["row", "columnar"])
def test_a_table_read_empty_then_loaded_is_the_pinned_party(engine, monkeypatch):
    monkeypatch.setattr(
        topology, "PrivateDatabase", functools.partial(PrivateDatabase, engine=engine)
    )
    layout = topology.build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=4, partitioned=1,
        seed=11,
    )
    built = {}
    for shard, parties in enumerate(layout.assignments):
        tables = layout.shard_tables(shard)
        for owner in sorted(parties):
            database = topology._build_party(owner, tables, {}, SCHEMA)
            for name in tables:
                table = database.table(name)
                assert table.top_k("value", 3) == table.scan() == []
                assert table.aggregate("value", "sum") is None
                values = parties[owner].get(name)
                if values:
                    table.insert_arrays({"value": values})
            built[owner] = _party_fields(database, tables)
    assert built == _expected(engine)


# -- one schema per federation build -------------------------------------------------


def _schemas_built(action) -> int:
    return _entered(action).count("Schema.__post_init__")


def test_a_federation_build_makes_one_schema():
    layout = topology.build_topology(
        shards=3, parties_per_shard=4, tables=6, rows_per_table=8, partitioned=2,
        seed=11,
    )
    assert _schemas_built(lambda: topology.single_federation(layout)) == 1
    for index in range(layout.shard_count):
        assert _schemas_built(lambda: topology._shard_federation(layout, index)) == 1
