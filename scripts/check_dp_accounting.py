#!/usr/bin/env python
"""CI privacy-smoke check: the (ε, δ) accountant against its golden ledger.

Runs a fixed, seeded DP workload three times — through a flat
``Federation``, through a ``ShardedFederation`` over the same topology, and
through a second flat ``Federation`` built from the same seeds, as a
restarted process would be — and asserts:

1. answers are byte-identical between the two deployments;
2. the two accountants' ledgers are byte-identical, line for line;
3. the restarted federation re-derives byte-identical answers and ledger
   (noise is keyed by the answer it perturbs, not by process state);
4. the composed (ε, δ) spend, release/free-serve/refusal counters and
   ledger match ``results/dp_accounting_golden.json``.

Run with ``--update`` to regenerate the golden file after an intentional
change to the DP mode (a fresh mechanism, a new composition rule); the
diff then documents exactly what moved.

Usage::

    PYTHONPATH=src python scripts/check_dp_accounting.py [--update]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.federation.coordinator import QueryRefused  # noqa: E402
from repro.privacy.dp import BudgetExhausted, DpPolicy  # noqa: E402
from repro.sharding.topology import (  # noqa: E402
    build_topology,
    sharded_federation,
    single_federation,
)

GOLDEN = REPO / "results" / "dp_accounting_golden.json"

#: Everything below is pinned: changing any of it is a golden update.
TOPOLOGY_SEED = 7
DP_SEED = 11
EPSILON_BUDGET = 12.0
DELTA_BUDGET = 1e-4


def _workload(topology) -> list[str]:
    routed = next(t for t in topology.tables if t not in topology.partitioned)
    part = topology.partitioned[0]
    return [
        f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
        f"SELECT SUM(value) FROM {part} WITH SLO(dp_epsilon=1.5, dp_delta=1e-6)",
        f"SELECT TOP 3 value FROM {routed} WITH SLO(dp_epsilon=4.0)",
        f"SELECT AVG(value) FROM {routed} WITH SLO(dp_epsilon=1.0)",
        f"SELECT COUNT(value) FROM {part} WITH SLO(dp_epsilon=0.5)",
        # Exact repeat: must re-serve the existing release for free.
        f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
        # Over-budget fresh release: must refuse typed, spending nothing.
        f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=50.0)",
    ]


def _run(deployment) -> dict:
    topology = build_topology(shards=3, seed=TOPOLOGY_SEED)
    statements = _workload(topology)
    policy = DpPolicy(
        epsilon_budget=EPSILON_BUDGET, delta_budget=DELTA_BUDGET, seed=DP_SEED
    )
    if deployment == "flat":
        federation = single_federation(topology, dp=policy)
    else:
        federation = sharded_federation(topology, dp=policy)
    settled = federation.execute_many_settled(statements)
    rows = []
    for result in settled:
        if isinstance(result, QueryRefused):
            kind = type(result.error).__name__
            assert isinstance(result.error, BudgetExhausted), (
                f"expected BudgetExhausted, got {kind}: {result.error}"
            )
            rows.append({"statement": result.statement, "refused": kind})
        else:
            rows.append(
                {
                    "statement": result.statement,
                    "values": list(result.values),
                    "protocol": result.protocol,
                    "cached": result.cached,
                }
            )
    return {
        "answers": rows,
        "ledger": federation.dp_gate.accountant.ledger_lines(),
        "accountant": federation.dp_gate.snapshot(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="regenerate the golden file"
    )
    args = parser.parse_args()

    flat = _run("flat")
    sharded = _run("sharded")

    failures: list[str] = []
    if flat["answers"] != sharded["answers"]:
        failures.append("flat and sharded answers diverge")
        for f, s in zip(flat["answers"], sharded["answers"]):
            if f != s:
                failures.append(f"  flat:    {f}")
                failures.append(f"  sharded: {s}")
    if flat["ledger"] != sharded["ledger"]:
        failures.append("flat and sharded accountant ledgers diverge")
        failures.append(f"  flat:    {flat['ledger']}")
        failures.append(f"  sharded: {sharded['ledger']}")
    if failures:
        print("DP accounting check FAILED (deployment parity):")
        print("\n".join(failures))
        return 1

    restarted = _run("flat")
    for key in ("answers", "ledger"):
        if json.dumps(restarted[key]) != json.dumps(flat[key]):
            failures.append(f"a restarted flat federation re-derives different {key}")
            failures.append(f"  first:     {flat[key]}")
            failures.append(f"  restarted: {restarted[key]}")
    if failures:
        print("DP accounting check FAILED (restart):")
        print("\n".join(failures))
        return 1

    observed = {
        "topology_seed": TOPOLOGY_SEED,
        "dp_seed": DP_SEED,
        "epsilon_budget": EPSILON_BUDGET,
        "delta_budget": DELTA_BUDGET,
        "answers": flat["answers"],
        "ledger": flat["ledger"],
        "accountant": flat["accountant"],
    }

    if args.update:
        GOLDEN.write_text(json.dumps(observed, indent=2) + "\n")
        print(f"wrote {GOLDEN.relative_to(REPO)}")
        return 0

    if not GOLDEN.exists():
        print(f"missing golden file {GOLDEN.relative_to(REPO)}; run with --update")
        return 1
    golden = json.loads(GOLDEN.read_text())
    if observed != golden:
        print("DP accounting check FAILED (golden drift):")
        for key in sorted(set(observed) | set(golden)):
            if observed.get(key) != golden.get(key):
                print(f"  {key}:")
                print(f"    golden:   {golden.get(key)!r}")
                print(f"    observed: {observed.get(key)!r}")
        print("If the change is intentional, rerun with --update and commit.")
        return 1

    spent = observed["accountant"]
    print(
        "DP accounting check OK: "
        f"{len(observed['ledger'])} charges, "
        f"epsilon_spent={spent['epsilon_spent']}, "
        f"delta_spent={spent['delta_spent']}, "
        f"flat == sharded == restarted, matches golden."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
