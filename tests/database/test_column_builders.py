"""Builders pass columns: a party built column-wise is the row-wise party.

``topology._build_party`` and ``database_from_values`` hand each table its
one column through ``Table.insert_arrays``.  The reference here builds the
same party the way they used to, one single-key row per value through
``Table.insert_many``.  On both engines the two must agree on everything a
caller or a cache can see: table names, row counts, ``Table.version``,
``PrivateDatabase.data_version``, how the columnar engine stores the rows
(encodings, rows still pending) and every answer with its Python type.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import engines
from repro.database.database import PrivateDatabase, database_from_values
from repro.database.engines import SUMMARY_ROWS
from repro.database.schema import Schema
from repro.sharding import topology as topology_module
from repro.sharding.topology import _build_party, build_topology

ATTRIBUTE = "value"
SCHEMA = Schema.of((ATTRIBUTE, "INTEGER"))
TABLES = ("t00", "t01", "t02", "part00")
#: ``k`` on both sides of the summary: small reads come from the column
#: summary, a larger one scans the column.
KS = (1, 3, SUMMARY_ROWS, SUMMARY_ROWS + 1)

#: Negative, zero and wide values; a few beyond int64 make a columnar
#: column spill, which both paths must do alike.
integers = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**6), 10**6),
    st.integers(-(2**70), 2**70),
)


def _rowwise_party(owner, tables, held, attribute, engine):
    """The party as it was built before builders passed columns."""
    db = PrivateDatabase(owner, engine=engine)
    schema = Schema.of((attribute, "INTEGER"))
    for table_name in tables:
        table = db.create_table(table_name, schema)
        values = held.get(table_name, ())
        if values:
            table.insert_many({attribute: int(v)} for v in values)
    return db


def _build_on(patch, engine):
    """Have ``_build_party`` build its party on ``engine``."""
    build = functools.partial(PrivateDatabase, engine=engine)
    patch.setattr(topology_module, "PrivateDatabase", build)


def _rowwise_from_values(owner, values, engine):
    """``database_from_values`` as it was, one single-key row per value."""
    db = PrivateDatabase(owner, engine=engine)
    values = list(values)
    integral = all(isinstance(v, int) for v in values)
    schema = Schema.of((ATTRIBUTE, "INTEGER" if integral else "REAL"))
    table = db.create_table("data", schema)
    table.insert_many({ATTRIBUTE: v} for v in values)
    return db


def _storage(table):
    """How the engine holds the rows: encodings and the pending tail.

    An engine that has built no column (it never held a row) reads as its
    schema's columns with no chunk and no pending row.
    """
    engine = table._engine
    if not isinstance(engine, engines.ColumnarEngine):
        return None
    if engine._columns is None:
        columns = [(0, 0, True)] * len(table.schema.columns)
    else:
        columns = [
            (len(c.pending), len(c.chunks), c.exact is None)
            for c in engine._columns.values()
        ]
    return engine.encodings(), columns


def _answers(table):
    """Every read a statement can make of the column, with value types."""
    out = []
    for k in KS:
        for op in (table.top_k, table.bottom_k):
            values = op(ATTRIBUTE, k)
            out.append((values, [type(v) for v in values]))
    for func in engines.AGGREGATES:
        value = table.aggregate(ATTRIBUTE, func)
        out.append((value, type(value)))
    return out


def assert_same_party(built, reference, engine):
    assert list(built._tables) == list(reference._tables)
    assert built.data_version == reference.data_version
    for name in reference._tables:
        got, want = built.table(name), reference.table(name)
        assert got.engine_name == want.engine_name == engine
        assert got.schema == want.schema
        assert len(got) == len(want)
        assert got.version == want.version
        assert _storage(got) == _storage(want)
        assert _answers(got) == _answers(want), name
        # The reads moved both sides' storage the same way (summaries,
        # seals, spills).
        assert _storage(got) == _storage(want)
        assert got.scan() == want.scan()


@st.composite
def holdings(draw):
    """A party's rows per table, as ``build_topology`` assigns them:
    ``int`` values, and no entry (or an empty one) for a table the party
    holds nothing of."""
    held = {}
    for table in TABLES:
        rows = draw(st.one_of(st.none(), st.lists(integers, max_size=2 * SUMMARY_ROWS)))
        if rows is not None:
            held[table] = rows
    return held


@pytest.mark.parametrize("engine", ["row", "columnar"])
@settings(max_examples=60, deadline=None)
@given(held=holdings(), tables=st.lists(st.sampled_from(TABLES), min_size=1, unique=True))
def test_build_party_matches_rowwise_inserts(engine, held, tables):
    with pytest.MonkeyPatch.context() as patch:
        _build_on(patch, engine)
        built = _build_party("org00x00", tuple(tables), held, SCHEMA)
    reference = _rowwise_party("org00x00", tuple(tables), held, ATTRIBUTE, engine)
    assert_same_party(built, reference, engine)


@pytest.mark.parametrize("engine", ["row", "columnar"])
def test_topology_rows_are_ints_and_build_the_rowwise_party(engine):
    topology = build_topology(shards=2, parties_per_shard=3, partitioned=2, seed=11)
    rows = [
        value
        for shard in topology.assignments
        for held in shard.values()
        for values in held.values()
        for value in values
    ]
    assert rows and {type(value) for value in rows} == {int}
    for table in topology.tables:
        assert {type(value) for value in topology.table_values(table)} == {int}
    with pytest.MonkeyPatch.context() as patch:
        _build_on(patch, engine)
        for index, shard in enumerate(topology.assignments):
            tables = topology.shard_tables(index)
            for owner, held in sorted(shard.items()):
                built = _build_party(owner, tables, held, SCHEMA)
                reference = _rowwise_party(owner, tables, held, ATTRIBUTE, engine)
                assert_same_party(built, reference, engine)


value_lists = st.one_of(
    st.lists(integers, max_size=2 * SUMMARY_ROWS),
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | integers.map(float),
        max_size=2 * SUMMARY_ROWS,
    ),
    # A REAL column that holds ints too, and one a value of which
    # (a non-finite or a negative zero) spills the columnar column.
    st.lists(st.floats(-1e6, 1e6, allow_nan=False) | integers, max_size=20),
    st.lists(st.sampled_from([0.0, -0.0, 1.5, float("inf"), -2.0]), max_size=20),
)


@pytest.mark.parametrize("engine", ["row", "columnar"])
@settings(max_examples=80, deadline=None)
@given(values=value_lists)
def test_database_from_values_matches_rowwise_inserts(engine, values):
    built = database_from_values("org", iter(values), engine=engine)
    reference = _rowwise_from_values("org", values, engine)
    assert_same_party(built, reference, engine)
