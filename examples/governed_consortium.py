#!/usr/bin/env python3
"""A governed consortium end to end: CSV data, access policy, privacy budget.

The most production-shaped example in this repository.  Four insurers load
their claims tables from CSV files, form a federation with (a) a
deny-by-default access policy — the market analyst may only run additive
aggregates, the regulator anything, with per-issuer quotas — and (b) a
cumulative privacy budget that eventually refuses further ranking queries.
A repeated statement is re-served from the result cache and costs nothing.
Everything ends in the audit log and exposure ledger.

Run:  python examples/governed_consortium.py
"""

import random
import tempfile
from pathlib import Path

from repro import PAPER_DOMAIN
from repro.database import PrivateDatabase, Schema, load_csv_table
from repro.federation import (
    ADDITIVE,
    ANY,
    AccessPolicy,
    Federation,
    PolicyViolation,
)
from repro.privacy.accounting import BudgetExceededError

INSURERS = ("meridian", "atlas-mutual", "keystone", "northcape")
SCHEMA = Schema.of(("amount", "INTEGER"), ("region", "TEXT"))


def write_claims_csvs(directory: Path, rng: random.Random) -> dict[str, Path]:
    paths = {}
    for insurer in INSURERS:
        rows = ["amount,region"]
        rows += [
            f"{rng.randint(1, 10_000)},{rng.choice(['north', 'south'])}"
            for _ in range(40)
        ]
        path = directory / f"{insurer}.csv"
        path.write_text("\n".join(rows) + "\n")
        paths[insurer] = path
    return paths


def main() -> None:
    rng = random.Random(55)
    with tempfile.TemporaryDirectory() as tmp:
        csv_paths = write_claims_csvs(Path(tmp), rng)

        policy = (
            AccessPolicy(quota_per_issuer=12)
            .allow("market-analyst", ADDITIVE)
            .allow("regulator", ANY)
        )
        federation = Federation(
            domain=PAPER_DOMAIN, seed=55, privacy_budget=2.0, policy=policy
        )
        for insurer, path in csv_paths.items():
            db = PrivateDatabase(insurer)
            load_csv_table(db, "claims", SCHEMA, path)
            federation.register(db)
        print(f"members: {', '.join(federation.members)}")
        print()

        # The analyst may aggregate, not rank.
        (total,) = federation.execute(
            "SELECT SUM(amount) FROM claims", issuer="market-analyst"
        ).values
        print(f"analyst: sector claims total          = {total:,.0f}")
        try:
            federation.execute(
                "SELECT TOP 3 amount FROM claims", issuer="market-analyst"
            )
        except PolicyViolation as exc:
            print(f"analyst: TOP 3 refused               -> {exc}")
        print()

        # The regulator may rank.  A repeat re-publishes the answer already
        # released: no ring runs, so no party is exposed again.
        top3 = "SELECT TOP 3 amount FROM claims"
        outcome = federation.execute(top3, issuer="regulator")
        print(f"regulator: TOP 3                     = {list(outcome.values)}")
        runs = federation.ledger.runs_charged
        repeat = federation.execute(top3, issuer="regulator")
        print(
            f"regulator: TOP 3 again               -> cached={repeat.cached}, "
            f"rounds={repeat.rounds}, runs charged {runs} -> "
            f"{federation.ledger.runs_charged}"
        )
        # Every new ranking statement runs the ring — until the budget runs dry.
        ran = 1
        try:
            for k in range(1, 10):
                outcome = federation.execute(
                    f"SELECT BOTTOM {k} amount FROM claims", issuer="regulator"
                )
                ran += 1
        except BudgetExceededError as exc:
            print(f"regulator: ran {ran} ranking queries, then -> {exc}")
        print(f"regulator: last answer               = {list(outcome.values)}")
        print()

        print("audit log:")
        for entry in federation.audit:
            print(f"  {entry.entry_id:>3} {entry.issuer:<14} {entry.statement}")
        print()
        ledger = federation.ledger
        print(f"exposure ledger after {ledger.runs_charged} runs:")
        for party in sorted(ledger.charges):
            print(f"  {party:<14} {ledger.charges[party]:.4f}")


if __name__ == "__main__":
    main()
