"""The TPC-H-like workload builder: determinism, perturbation, and scale."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.database import (
    LINEITEM_ROWS_PER_SF,
    LINEITEM_SCHEMA,
    PrivateDatabase,
    Schema,
    Table,
    TPCH_ATTRIBUTE,
    TPCH_PRICE_DOMAIN,
    TPCH_TABLE,
    lineitem_arrays,
    lineitem_database,
    lineitem_databases,
    price_query,
)
from repro.database.engines import CHUNK_ROWS

REAL_COLUMNS = ("l_extendedprice", "l_discount", "l_tax")


def test_arrays_are_deterministic_per_party_seed():
    a = lineitem_arrays(500, seed=11, party="party0")
    b = lineitem_arrays(500, seed=11, party="party0")
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_parties_hold_distinct_but_like_shaped_data():
    a = lineitem_arrays(2_000, seed=11, party="party0")
    b = lineitem_arrays(2_000, seed=11, party="party1")
    assert not np.array_equal(a[TPCH_ATTRIBUTE], b[TPCH_ATTRIBUTE])
    # Same pricing structure: both parties' price ranges are dbgen-like.
    for arrays in (a, b):
        prices = arrays[TPCH_ATTRIBUTE]
        assert prices.min() >= TPCH_PRICE_DOMAIN.low
        assert prices.max() <= TPCH_PRICE_DOMAIN.high


def test_seed_changes_data():
    a = lineitem_arrays(500, seed=11, party="party0")
    b = lineitem_arrays(500, seed=12, party="party0")
    assert not np.array_equal(a[TPCH_ATTRIBUTE], b[TPCH_ATTRIBUTE])


def test_prices_follow_quantity_times_unit_price():
    arrays = lineitem_arrays(5_000, seed=3, party="p", jitter=0.0)
    quantity = arrays["l_quantity"]
    prices = arrays[TPCH_ATTRIBUTE]
    unit = prices / quantity
    assert unit.min() >= 900.0 - 0.01
    assert unit.max() <= 2100.0 + 0.01
    # Prices are rounded to cents.
    assert np.allclose(prices, np.round(prices, 2))


def test_jitter_validation():
    with pytest.raises(ValueError, match="jitter"):
        lineitem_arrays(10, seed=0, jitter=0.1)
    with pytest.raises(ValueError, match="jitter"):
        lineitem_arrays(10, seed=0, jitter=-0.01)
    with pytest.raises(ValueError, match="rows"):
        lineitem_arrays(-1, seed=0)


def test_database_sizing_rows_vs_scale_factor():
    db = lineitem_database("p0", seed=5, rows=1_234)
    assert len(db.table(TPCH_TABLE)) == 1_234
    sf = lineitem_database("p1", seed=5, scale_factor=0.0005)
    assert len(sf.table(TPCH_TABLE)) == int(0.0005 * LINEITEM_ROWS_PER_SF)
    with pytest.raises(ValueError, match="exactly one"):
        lineitem_database("p2", seed=5)
    with pytest.raises(ValueError, match="exactly one"):
        lineitem_database("p3", seed=5, rows=10, scale_factor=1.0)


def test_database_schema_and_domain_check():
    db = lineitem_database("p0", seed=5, rows=3_000)
    table = db.table(TPCH_TABLE)
    assert table.schema.is_compatible_with(LINEITEM_SCHEMA)
    query = price_query(10)
    assert table.aggregate(TPCH_ATTRIBUTE, "min") >= TPCH_PRICE_DOMAIN.low
    assert table.aggregate(TPCH_ATTRIBUTE, "max") <= TPCH_PRICE_DOMAIN.high
    top = db.local_topk(query)
    assert top == sorted(top, reverse=True)
    assert len(top) == 10


def test_federation_builder_owner_and_determinism():
    dbs = lineitem_databases(3, seed=9, rows_per_party=800)
    assert [db.owner for db in dbs] == ["party0", "party1", "party2"]
    again = lineitem_databases(3, seed=9, rows_per_party=800)
    q = price_query(5)
    assert [db.local_topk(q) for db in dbs] == [db.local_topk(q) for db in again]
    with pytest.raises(ValueError, match="parties"):
        lineitem_databases(0, seed=9, rows_per_party=10)


def test_engine_choice_does_not_change_data():
    q = price_query(7)
    row = lineitem_database("p0", seed=21, rows=5_000, engine="row")
    col = lineitem_database("p0", seed=21, rows=5_000, engine="columnar")
    assert row.local_topk(q) == col.local_topk(q)
    assert row.table(TPCH_TABLE).scan()[:50] == col.table(TPCH_TABLE).scan()[:50]


# -- space, counted -----------------------------------------------------------
#
# Bytes per row and peak traced memory repeat exactly for a given row count,
# so they can be held to the numbers named beforehand where a timing cannot.

COUNTED_ROWS = 200_000


def _traced(build, rows=COUNTED_ROWS):
    """(peak, kept) bytes of ``build()``, in units of one 8-byte column of
    ``rows`` rows."""
    lineitem_arrays(10, seed=0)  # lazy imports happen outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del built
    column = rows * 8
    return (peak - base) / column, (kept - base) / column


def test_lineitem_is_stored_at_fifteen_bytes_a_row():
    table = lineitem_database("party0", seed=5, rows=COUNTED_ROWS).table(TPCH_TABLE)
    engine = table._engine
    widths = [
        engine._numeric(name).chunks[0].codes.dtype.itemsize
        for name in LINEITEM_SCHEMA.names
    ]
    assert widths == [4, 4, 1, 4, 1, 1]
    assert engine.encodings() == {
        "l_orderkey": "int32",
        "l_partkey": "int32",
        "l_quantity": "int8",
        "l_extendedprice": "int32/100",
        "l_discount": "int8/100",
        "l_tax": "int8/100",
    }
    assert table.nbytes == 15 * COUNTED_ROWS  # parent: 19 B/row; 48 before that
    # Reads build summaries (2 x 64 values a column): still under 16 B/row.
    for name in LINEITEM_SCHEMA.names:
        table.top_k(name, 5)
    assert 15 * COUNTED_ROWS < table.nbytes <= 16 * COUNTED_ROWS
    row_store = lineitem_database("p", seed=5, rows=100, engine="row")
    assert row_store.table(TPCH_TABLE).nbytes is None


def test_values_without_a_narrower_form_are_stored_as_before():
    rng = np.random.default_rng(8)
    table = Table("t", Schema.of(("i", "INTEGER"), ("x", "REAL")))
    table.insert_arrays(
        {
            "i": rng.integers(-(2**63), 2**63 - 1, COUNTED_ROWS, dtype=np.int64),
            "x": rng.uniform(-1e9, 1e9, COUNTED_ROWS),
        }
    )
    assert table.nbytes == 16 * COUNTED_ROWS
    assert table._engine.encodings() == {"i": "int64", "x": "float64"}


def test_generator_holds_six_arrays_at_its_worst_moment():
    peak, kept = _traced(lambda: lineitem_arrays(COUNTED_ROWS, seed=5))
    assert kept == pytest.approx(6.0, abs=0.01)
    assert peak <= 6.5  # parent: 9.0 (unit price, factor, products, round copies)


def test_building_a_party_never_holds_a_second_full_width_copy():
    peak, kept = _traced(lambda: lineitem_database("party0", seed=5, rows=COUNTED_ROWS))
    # One block (COUNTED_ROWS < CHUNK_ROWS): the peak is the price being
    # computed (unit price, factor) beside 9 B/row of sealed keys and
    # quantities and a 1 B/row copy of the quantities; 15 B/row (1.875
    # columns) once it is all sealed.
    assert peak <= 3.5  # parent: 4.2 (an int64 quantity beside the two)
    assert kept <= 2.0


# Four full blocks and a remainder: the blocks a party is drawn in.
BLOCKED_ROWS = 4 * CHUNK_ROWS + 3


def test_building_a_blocked_party_holds_its_codes_and_one_block():
    peak, kept = _traced(
        lambda: lineitem_database("party0", seed=5, rows=BLOCKED_ROWS), BLOCKED_ROWS
    )
    # The sealed codes (1.875 columns) and the last block in flight.
    assert peak <= 2.6  # parent: 4.13 (three full-width arrays for the price)
    assert kept == pytest.approx(1.875, abs=0.01)


def test_blocked_generator_holds_six_arrays_and_one_block():
    peak, kept = _traced(lambda: lineitem_arrays(BLOCKED_ROWS, seed=5), BLOCKED_ROWS)
    assert kept == pytest.approx(6.0, abs=0.01)
    assert peak <= 6.5


# -- the column stream --------------------------------------------------------


@pytest.mark.parametrize(
    "rows, jitter, match", [(10, 0.1, "jitter"), (-1, 0.02, "rows")]
)
def test_arguments_are_checked_before_any_table_exists(monkeypatch, rows, jitter, match):
    """A generator body runs at its first ``next()``: checks placed there
    would fire only after ``create_table``, from inside ``insert_arrays``."""
    created = []
    create_table = PrivateDatabase.create_table

    def recording(self, name, *args, **kwargs):
        created.append(name)
        return create_table(self, name, *args, **kwargs)

    monkeypatch.setattr(PrivateDatabase, "create_table", recording)
    with pytest.raises(ValueError, match=match):
        lineitem_database("p0", seed=0, rows=rows, jitter=jitter)
    assert created == []


def test_streamed_table_decodes_to_the_generated_arrays():
    rows, seed = 3_000, 17
    names = list(lineitem_arrays(1, seed=seed))  # in the order they stream
    assert names == list(LINEITEM_SCHEMA.names)
    for party in ("party0", "party1"):
        table = lineitem_database(party, seed=seed, rows=rows).table(TPCH_TABLE)
        expected = lineitem_arrays(rows, seed=seed, party=party)
        for name in names:
            assert table.project(name) == expected[name].tolist(), name


def test_generator_output_is_pinned_bit_for_bit():
    """The six arrays for (seed 0, party0, 10 000 rows), hashed at the commit
    before the generator started computing in place."""
    arrays = lineitem_arrays(10_000, seed=0, party="party0")
    digest = hashlib.sha256()
    for name in LINEITEM_SCHEMA.names:
        assert arrays[name].dtype == (np.float64 if name in REAL_COLUMNS else np.int64)
        digest.update(arrays[name].tobytes())
    assert digest.hexdigest() == (
        "e7bfccaa9f360dd4c82b6659fd7bff9733781182516d6530f374e65ea9a7811b"
    )


def test_blocked_generator_output_is_pinned_bit_for_bit():
    """Four blocks and a remainder, hashed at the commit before the generator
    drew a column a block at a time: the blocks are the one draw, cut."""
    arrays = lineitem_arrays(BLOCKED_ROWS, seed=1, party="party3", jitter=0.05)
    digest = hashlib.sha256()
    for name in LINEITEM_SCHEMA.names:
        digest.update(arrays[name].tobytes())
    assert digest.hexdigest() == (
        "3b305f90d05440147025de2f22f43b8d241d88fa8b99cb7d85d023fb3ae73654"
    )


def test_blocked_party_is_sealed_a_block_at_a_time_and_reads_back():
    table = lineitem_database("party1", seed=2, rows=BLOCKED_ROWS).table(TPCH_TABLE)
    expected = lineitem_arrays(BLOCKED_ROWS, seed=2, party="party1")
    engine = table._engine
    assert table.version == 1 and len(table) == BLOCKED_ROWS
    for name in LINEITEM_SCHEMA.names:
        chunks = engine._numeric(name).chunks
        assert [len(chunk) for chunk in chunks] == [CHUNK_ROWS] * 4 + [3], name
        values = engine._numeric(name).valid_values()
        assert np.array_equal(values.view(np.int64), expected[name].view(np.int64))
    assert table.nbytes == 15 * BLOCKED_ROWS
