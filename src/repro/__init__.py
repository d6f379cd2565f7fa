"""repro — reproduction of "Topk Queries across Multiple Private Databases"
(Xiong, Chitti, Liu; ICDCS 2005).

A decentralized probabilistic ring protocol for privacy-preserving top-k
selection across n > 2 private databases, together with the substrates it
runs on (simulated P2P network, private-database layer), the paper's privacy
model (Loss of Privacy), its analytical bounds, and an experiment harness
that regenerates every figure of the paper's evaluation.

Quickstart::

    import random
    from repro import (
        DataGenerator, RunConfig, TopKQuery, database_from_values, run_topk_query,
    )

    gen = DataGenerator(rng=random.Random(7))
    databases = [
        database_from_values(f"node{i}", values)
        for i, values in enumerate(gen.node_datasets(10, 100))
    ]
    query = TopKQuery(table="data", attribute="value", k=5)
    result = run_topk_query(databases, query, RunConfig(seed=7))
    print(result.answer(), result.precision())
"""

from ._lazy import lazy_exports

_EXPORTS = {
    "analysis": (
        "expected_lop_bound",
        "minimum_rounds",
        "naive_average_lop",
        "precision_lower_bound",
    ),
    "core": (
        "ANONYMOUS_NAIVE",
        "DriverError",
        "ExponentialSchedule",
        "NAIVE",
        "PROBABILISTIC",
        "PROTOCOLS",
        "ProtocolParams",
        "ProtocolResult",
        "ProtocolSession",
        "RunConfig",
        "run_many_on_vectors",
        "run_protocol_on_vectors",
        "run_topk_queries",
        "run_topk_query",
    ),
    "database": (
        "DataGenerator",
        "Domain",
        "PAPER_DOMAIN",
        "PrivateDatabase",
        "Schema",
        "Table",
        "TopKQuery",
        "database_from_values",
    ),
    "federation": ("Federation", "QueryOutcome"),
    "privacy": (
        "average_lop",
        "node_lop",
        "per_round_average_lop",
        "precision",
        "worst_case_lop",
    ),
    "service": ("QueryService",),
}

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, _EXPORTS, eager=("__version__",)
)
