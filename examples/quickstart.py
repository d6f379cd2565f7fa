#!/usr/bin/env python3
"""Quickstart: a top-5 query across ten private databases.

Ten organizations each hold a private table of values drawn over the public
domain [1, 10000].  They jointly compute the global top-5 with the paper's
probabilistic protocol — no party reveals its data, no third party exists —
and we inspect what the run cost and what an adversary could have learned.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    DataGenerator,
    RunConfig,
    TopKQuery,
    average_lop,
    database_from_values,
    run_topk_query,
    worst_case_lop,
)


def main() -> None:
    # 1. Ten private databases with 100 values each (uniform over [1, 10000]).
    generator = DataGenerator(rng=random.Random(7))
    databases = [
        database_from_values(f"node{i}", values)
        for i, values in enumerate(generator.node_datasets(10, 100))
    ]

    # 2. The public query: top-5 of the shared "value" attribute.
    query = TopKQuery(table="data", attribute="value", k=5)

    # 3. Run the decentralized probabilistic protocol (paper defaults:
    #    p0=1, d=1/2, rounds from the epsilon=0.001 guarantee).
    result = run_topk_query(databases, query, RunConfig(seed=7))

    print("top-5 values   :", result.answer())
    print("ground truth   :", result.true_topk())
    print("precision      :", f"{result.precision():.0%}")
    print("rounds         :", result.rounds_executed)
    print("messages       :", result.stats.messages_total)
    print("ring order     :", " -> ".join(result.ring_order))
    print("starting node  :", result.starter, "(randomly chosen, stays anonymous)")

    # 4. Privacy: what could each node's successor have proven about it?
    print("average LoP    :", f"{average_lop(result):.4f}")
    print("worst-case LoP :", f"{worst_case_lop(result):.4f}")


if __name__ == "__main__":
    main()
