"""A table is built in one step.

The value types a column accepts without a per-value check are derived
once, by ``Column``; ``Table`` builds the default columnar engine itself, and a
list column goes from ``insert_arrays`` to the column's pending tail with one
engine call.  The work per table is pinned as a count of Python-level calls
(a ``sys.setprofile`` hook, as ``scripts/call_census.py`` installs), not as a
timing.  A party ``sharding.topology`` builds is pinned field for field on
the row engine, the columnar engine and a factory engine.
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.database.database import PrivateDatabase
from repro.database.engines import ColumnarEngine
from repro.database.schema import Schema
from repro.sharding import topology


def _entered(action) -> list[str]:
    """The Python functions ``action`` enters, in order, ``action`` aside."""
    names: list[str] = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

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


def test_an_empty_table_costs_four_python_calls(database):
    calls = _entered(lambda: database.create_table("t", SCHEMA))
    assert len(calls) <= 4, calls


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
            database = topology._build_party(owner, tables, parties[owner], "value")
            built[owner] = _party_fields(database, tables)
    if engine == "row":  # no array storage to report
        expected = {
            owner: (version, {
                name: (*fields[:3], None, None, None) for name, fields in tables.items()
            })
            for owner, (version, tables) in PARTIES.items()
        }
    else:
        expected = PARTIES
    assert built == expected
