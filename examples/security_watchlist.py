#!/usr/bin/env python3
"""Government agencies share a threat statistic without opening databases.

The paper's second motivating scenario (Section 1): agencies "need to share
their criminal record databases in identifying certain suspects ... However,
they cannot indiscriminately open up their databases to all other agencies."

Six agencies each score persons of interest (a sensitive integer score over
a public domain).  They compute the maximum score across all agencies — the
k=1 special case — then study two hostile conditions: a pair of colluding
neighbours on the ring, and the same query run with per-round ring
remapping as the countermeasure (Section 4.3).

Run:  python examples/security_watchlist.py
"""

import random

from repro import (
    ProtocolParams,
    RunConfig,
    TopKQuery,
    database_from_values,
    run_topk_query,
)
from repro.privacy import average_lop, coalition_lop

AGENCIES = ("alpha", "bravo", "customs", "dhs-x", "europol-liaison", "fincen-x")


def build_agencies(rng: random.Random):
    return [
        database_from_values(
            name,
            [rng.randint(1, 10_000) for _ in range(40)],
            table="watchlist",
            attribute="threat_score",
        )
        for name in AGENCIES
    ]


def run_condition(databases, *, remap: bool, trials: int = 25):
    """Mean single-adversary and coalition LoP under one ring policy."""
    query = TopKQuery(table="watchlist", attribute="threat_score", k=1)
    params = ProtocolParams.paper_defaults(rounds=8, remap_each_round=remap)
    single = coalition = 0.0
    answer = None
    for seed in range(trials):
        config = RunConfig(params=params, seed=seed)
        result = run_topk_query(databases, query, config)
        answer = result.answer()[0]
        single += average_lop(result)
        nodes = result.ring_order
        coalition += sum(coalition_lop(result, node) for node in nodes) / len(nodes)
    return answer, single / trials, coalition / trials


def main() -> None:
    rng = random.Random(41)
    agencies = build_agencies(rng)

    truth = max(
        v
        for db in agencies
        for v in db.table("watchlist").project("threat_score")
    )
    print(f"true maximum threat score (omniscient view): {truth}")
    print()

    header = f"{'ring policy':<22} {'max found':>9} {'avg LoP':>9} {'coalition LoP':>14}"
    print(header)
    print("-" * len(header))
    for label, remap in (("static ring", False), ("remap each round", True)):
        answer, single, coalition = run_condition(agencies, remap=remap)
        print(f"{label:<22} {answer:>9.0f} {single:>9.4f} {coalition:>14.4f}")

    print()
    print(
        "A lone semi-honest successor learns almost nothing either way.  A "
        "colluding predecessor/successor pair learns more — and re-randomizing "
        "the ring between rounds denies them a fixed victim, the Section 4.3 "
        "countermeasure."
    )


if __name__ == "__main__":
    main()
