"""End-to-end engine parity: a federation's answers never depend on storage.

The storage engine is a per-party performance choice; every protocol
outcome — values, rounds, messages, LoP, traces — must be bit-identical
whichever engine backs the private tables.  These tests run identical
seeded federations over row-store and columnar parties and compare whole
outcomes, including a TPC-H-scale run and the cache-invalidation path.
"""

import pytest

from repro.core.driver import RunConfig, run_topk_query
from repro.database import (
    PAPER_DOMAIN,
    DataGenerator,
    TopKQuery,
    database_from_values,
)
from repro.database.tpch import (
    TPCH_PRICE_DOMAIN,
    TPCH_TABLE,
    lineitem_databases,
    price_query,
)
from repro.federation import Federation

import random

DATASETS = {
    "acme": [100, 900, 250, 777],
    "bravo": [9000, 40, 40],
    "corex": [7000, 6500, 3],
    "delta": [5, 1234],
}


def build_federation(engine: str) -> Federation:
    fed = Federation(domain=PAPER_DOMAIN, seed=7)
    for owner, values in DATASETS.items():
        fed.register(database_from_values(owner, values, engine=engine))
    return fed


def outcome_key(outcome):
    return (
        outcome.values,
        outcome.protocol,
        outcome.rounds,
        outcome.messages,
        outcome.cached,
        outcome.simulated_seconds,
    )


@pytest.mark.parametrize("engine", ["row", "columnar"])
def test_single_queries_bit_identical_across_engines(engine):
    reference = build_federation("row")
    other = build_federation(engine)
    a = reference.execute("SELECT TOP 3 value FROM data")
    b = other.execute("SELECT TOP 3 value FROM data")
    assert outcome_key(a) == outcome_key(b)
    bottom = "SELECT BOTTOM 2 value FROM data"
    assert outcome_key(reference.execute(bottom)) == outcome_key(other.execute(bottom))
    for scalar in ("MAX", "MIN", "SUM", "COUNT", "AVG"):
        statement = f"SELECT {scalar}(value) FROM data"
        assert reference.execute(statement).values == other.execute(statement).values


def test_execute_many_and_cache_bit_identical():
    statements = [
        "SELECT TOP 3 value FROM data",
        "SELECT MAX(value) FROM data",
        "SELECT TOP 3 value FROM data",  # repeat -> cache hit
        "SELECT AVG(value) FROM data",
        "SELECT COUNT(value) FROM data",
    ]
    row_fed = build_federation("row")
    col_fed = build_federation("columnar")
    row_out = row_fed.execute_many_settled(statements)
    col_out = col_fed.execute_many_settled(statements)
    assert [outcome_key(o) for o in row_out] == [outcome_key(o) for o in col_out]
    assert row_out[2].cached and col_out[2].cached


def test_cache_invalidation_tracks_data_version_on_both_engines():
    statement = "SELECT TOP 2 value FROM data"
    for engine in ("row", "columnar"):
        fed = Federation(domain=PAPER_DOMAIN, seed=7)
        databases = {
            owner: database_from_values(owner, values, engine=engine)
            for owner, values in DATASETS.items()
        }
        for db in databases.values():
            fed.register(db)
        first = fed.execute(statement)
        assert not first.cached
        assert fed.execute(statement).cached
        # A row landing in one party's table bumps its data_version, which
        # must invalidate the cached answer on any engine.
        databases["acme"].insert("data", {"value": 9_999})
        refreshed = fed.execute(statement)
        assert not refreshed.cached
        assert refreshed.values[0] == 9_999.0


def test_inserts_between_statements_bit_identical_across_engines():
    """Writes landing between ``execute`` calls: the columnar parties answer
    from summaries folded forward row by row, the row-store parties rescan,
    and every outcome — and every cache decision — is the same."""
    statements = [
        "SELECT TOP 3 value FROM data",
        "SELECT BOTTOM 2 value FROM data",
        "SELECT MAX(value) FROM data",
        "SELECT MIN(value) FROM data",
        "SELECT SUM(value) FROM data",
        "SELECT AVG(value) FROM data",
        "SELECT COUNT(value) FROM data",
    ]
    rng = random.Random(21)
    writes = [(rng.choice(sorted(DATASETS)), rng.randint(1, 10_000)) for _ in range(12)]
    transcripts = {}
    for engine in ("row", "columnar"):
        fed = Federation(domain=PAPER_DOMAIN, seed=7)
        databases = {
            owner: database_from_values(owner, values, engine=engine)
            for owner, values in DATASETS.items()
        }
        for db in databases.values():
            fed.register(db)
        transcript = []
        for owner, value in writes:
            before = databases[owner].data_version
            databases[owner].insert("data", {"value": value})
            assert databases[owner].data_version == before + 1
            for statement in statements:
                fresh = fed.execute(statement)
                again = fed.execute(statement)
                # The version bump invalidated what the last round cached;
                # nothing has been written since, so the repeat is a hit.
                assert not fresh.cached and again.cached
                assert again.values == fresh.values
                transcript.append(outcome_key(fresh))
        transcripts[engine] = transcript
    assert transcripts["row"] == transcripts["columnar"]
    # The last statement is COUNT, which is exact: every write is counted.
    held = sum(len(values) for values in DATASETS.values()) + len(writes)
    assert transcripts["columnar"][-1][0] == (float(held),)


def test_generated_workload_parity():
    gen_row = DataGenerator(rng=random.Random(5))
    gen_col = DataGenerator(rng=random.Random(5))
    row_dbs = [
        database_from_values(f"node{i}", values, engine="row")
        for i, values in enumerate(gen_row.node_datasets(6, 50))
    ]
    col_dbs = [
        database_from_values(f"node{i}", values, engine="columnar")
        for i, values in enumerate(gen_col.node_datasets(6, 50))
    ]
    query = TopKQuery(table="data", attribute="value", k=5)
    config = RunConfig(seed=11)
    a = run_topk_query(row_dbs, query, config)
    b = run_topk_query(col_dbs, query, config)
    assert a.final_vector == b.final_vector
    assert a.rounds_executed == b.rounds_executed
    assert a.stats == b.stats
    assert a.precision() == b.precision() == 1.0


def test_tpch_federation_parity():
    query = price_query(5)
    config = RunConfig(seed=3)
    results = {}
    for engine in ("row", "columnar"):
        dbs = lineitem_databases(4, seed=17, rows_per_party=4_000, engine=engine)
        fed = Federation(domain=TPCH_PRICE_DOMAIN, seed=13)
        fed.register_domain(TPCH_TABLE, query.attribute, TPCH_PRICE_DOMAIN)
        for db in dbs:
            fed.register(db)
        protocol_result = run_topk_query(dbs, query, config)
        outcome = fed.execute(f"SELECT TOP 5 {query.attribute} FROM {TPCH_TABLE}")
        results[engine] = (protocol_result.final_vector, outcome_key(outcome))
    assert results["row"] == results["columnar"]
