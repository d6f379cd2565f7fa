#!/usr/bin/env python
"""CI privacy-smoke check: the (ε, δ) accountant against its golden ledger.

Runs a fixed, seeded DP workload four times — through a flat
``Federation``, through a ``ShardedFederation`` over the same topology with
in-process shards and again with one worker process per shard, and through
a second flat ``Federation`` built from the same seeds, as a restarted
process would be — and asserts:

1. answers are byte-identical between the three deployments;
2. the three accountants' ledgers are byte-identical, line for line;
3. the restarted federation re-derives byte-identical answers and ledger
   (noise is keyed by the answer it perturbs, not by process state);
4. the composed (ε, δ) spend, release/free-serve/refusal counters and
   ledger match ``results/dp_accounting_golden.json``;
5. on every deployment the workload's repeat DP statement re-serves its
   bytes free through the ``try_cached`` fast path, and — in-process
   deployments, where a party's rows can be changed — a DP statement whose
   inner answer changed since its release is a fast-path miss that audits
   nothing and counts no cache hit;
6. the budget makes every issuer DP-governed: on every deployment the
   repeat's exact inner statement, cached, is refused typed (``DpRequired``)
   on the fast path and in a batch, and moves no spend, audit or cache count.

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
from repro.privacy.dp import BudgetExhausted, DpPolicy, DpRequired  # noqa: E402
from repro.sharding.topology import (  # noqa: E402
    build_topology,
    sharded_federation,
    single_federation,
)

GOLDEN = REPO / "results" / "dp_accounting_golden.json"

#: Everything below is pinned: changing any of it is a golden update.
DEPLOYMENTS = ("flat", "sharded", "processes")
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
        # Exact repeat (REPEAT): must re-serve the existing release for free.
        f"SELECT MAX(value) FROM {routed} WITH SLO(dp_epsilon=2.0)",
        # Over-budget fresh release: must refuse typed, spending nothing.
        f"SELECT MIN(value) FROM {routed} WITH SLO(dp_epsilon=50.0)",
    ]


#: The workload's position of its exact repeat, and of a fan-out SUM.
REPEAT, PART_SUM = 5, 1


def _run(deployment) -> dict:
    topology = build_topology(shards=3, seed=TOPOLOGY_SEED)
    statements = _workload(topology)
    policy = DpPolicy(
        epsilon_budget=EPSILON_BUDGET, delta_budget=DELTA_BUDGET, seed=DP_SEED
    )
    if deployment == "flat":
        return _observe(single_federation(topology, dp=policy), topology, statements)
    federation = sharded_federation(
        topology, dp=policy, processes=deployment == "processes"
    )
    try:
        return _observe(federation, topology, statements)
    finally:
        federation.close()


def _observe(federation, topology, statements: list[str]) -> dict:
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
    observed = {
        "answers": rows,
        "ledger": federation.dp_gate.accountant.ledger_lines(),
        "accountant": federation.dp_gate.snapshot(),
    }
    observed["governed"] = _governed(federation, statements)
    observed["fast_path"] = _fast_path(federation, topology, statements, rows)
    return observed


def _federations(federation) -> list:
    """The in-process :class:`Federation` objects behind a deployment."""
    shards = getattr(federation, "shards", None)
    if shards is None:
        return [federation]
    return [getattr(shard, "federation", None) for shard in shards]


def _books(federation) -> tuple:
    """Spend, cache hits and misses, and every audit in reach."""
    audits = [len(f.audit) for f in _federations(federation) if f is not None]
    return (
        federation.dp_gate.snapshot(),
        federation.cache.hits,
        federation.cache.misses,
        audits,
    )


def _governed(federation, statements: list[str]) -> list[str]:
    """What the issuer rule let through; empty when nothing."""
    failures = []
    plain = statements[REPEAT].split(" WITH ")[0]  # its inner: cached
    before = _books(federation)
    try:
        hit = federation.try_cached(plain)
        failures.append(f"the fast path answered a plain statement: {hit}")
    except DpRequired:
        pass
    (settled,) = federation.execute_many_settled([plain])
    if not isinstance(getattr(settled, "error", None), DpRequired):
        failures.append(f"a batch answered a plain statement: {settled}")
    if _books(federation) != before:
        failures.append(f"a refusal moved the books: {before} -> {_books(federation)}")
    return failures


def _fast_path(federation, topology, statements: list[str], rows: list) -> list[str]:
    """What the ``try_cached`` fast path got wrong; empty when nothing."""
    failures = []
    spent = federation.dp_gate.accountant.epsilon.spent
    hit = federation.try_cached(statements[REPEAT])
    if hit is None or list(hit.values) != rows[REPEAT]["values"]:
        failures.append(f"the repeat was not re-served its bytes: {hit}")
    if federation.dp_gate.accountant.epsilon.spent != spent:
        failures.append("the fast-path re-serve spent epsilon")
    feds = _federations(federation)
    if None in feds:
        return failures  # worker processes: their rows are out of reach
    # One more row under the fan-out SUM's release, its inner re-cached by a
    # DP SUM at another epsilon: the budgeted issuer gets no plain SUM.
    part = topology.partitioned[0]
    owner = sorted(topology.assignments[0])[0]
    next(f for f in feds if owner in f.members)._parties[owner].insert(
        part, {"value": 1}
    )
    federation.execute(f"SELECT SUM(value) FROM {part} WITH SLO(dp_epsilon=0.25)")

    def books() -> tuple[int, int]:
        return sum(len(f.audit) for f in feds), federation.cache.hits

    before = books()
    if federation.try_cached(statements[PART_SUM]) is not None:
        failures.append("a DP statement over a changed inner answer was re-served")
    if books() != before:
        failures.append(f"a fast-path miss moved (audit, hits): {before} -> {books()}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="regenerate the golden file"
    )
    args = parser.parse_args()

    runs = {deployment: _run(deployment) for deployment in DEPLOYMENTS}
    flat = runs["flat"]

    failures: list[str] = []
    for deployment, run in runs.items():
        if run["answers"] != flat["answers"]:
            failures.append(f"flat and {deployment} answers diverge")
            for f, s in zip(flat["answers"], run["answers"]):
                if f != s:
                    failures.append(f"  flat:    {f}")
                    failures.append(f"  {deployment}: {s}")
        if run["ledger"] != flat["ledger"]:
            failures.append(f"flat and {deployment} accountant ledgers diverge")
            failures.append(f"  flat:    {flat['ledger']}")
            failures.append(f"  {deployment}: {run['ledger']}")
        failures.extend(f"{deployment} issuer rule: {f}" for f in run["governed"])
        failures.extend(f"{deployment} fast path: {f}" for f in run["fast_path"])
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
        f"flat == sharded == processes == restarted, fast path free, "
        f"plain statements refused, matches golden."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
