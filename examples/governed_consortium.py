#!/usr/bin/env python3
"""A governed consortium end to end: CSV data, tenants, privacy budgets.

The most production-shaped example in this repository.  Four insurers load
their claims tables from CSV files into one federation, served as a
one-shard ``ShardedFederation`` so that every issuer can be a tenant with
its own allowances:

* the market analyst holds a differential-privacy budget, which makes it
  DP-governed: it gets noisy releases only, an exact statement is refused,
  and the budget eventually refuses further releases;
* the regulator holds a loss-of-privacy (LoP) budget: it ranks exactly
  until the budget refuses further ranking queries.

A repeated statement is re-served from the result cache and costs nothing.
Everything ends in the audit log and exposure ledger.

Run:  python examples/governed_consortium.py
"""

import random
import tempfile
from pathlib import Path

from repro import PAPER_DOMAIN
from repro.database import PrivateDatabase, Schema, load_csv_table
from repro.federation import Federation
from repro.privacy.dp import BudgetExhausted, DpPolicy, DpRequired
from repro.sharding import ShardedFederation, TenantPolicy
from repro.sharding.shards import LocalShard

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

        parties = Federation(domain=PAPER_DOMAIN, seed=55)
        for insurer, path in csv_paths.items():
            db = PrivateDatabase(insurer)
            load_csv_table(db, "claims", SCHEMA, path)
            parties.register(db)
        federation = ShardedFederation(
            [LocalShard(parties)], dp=DpPolicy(seed=55), domain=PAPER_DOMAIN
        )
        federation.set_tenant("market-analyst", TenantPolicy(dp_epsilon_budget=1.0))
        federation.set_tenant("regulator", TenantPolicy(lop_budget=0.6))
        print(f"members: {', '.join(federation.members)}")
        print()

        # The analyst holds an epsilon budget: noisy releases only.
        total = "SELECT SUM(amount) FROM claims"
        (noisy,) = federation.execute(
            f"{total} WITH SLO(dp_epsilon=0.5)", issuer="market-analyst"
        ).values
        print(f"analyst: sector claims total, eps 0.5 = {noisy:,.0f}")
        try:
            federation.execute(total, issuer="market-analyst")
        except DpRequired as exc:
            print(f"analyst: the exact total refused     -> {exc}")
        top = federation.execute(
            "SELECT TOP 3 amount FROM claims WITH SLO(dp_epsilon=0.5)",
            issuer="market-analyst",
        )
        print(f"analyst: TOP 3, eps 0.5              = {list(top.values)}")
        try:
            federation.execute(
                "SELECT COUNT(amount) FROM claims WITH SLO(dp_epsilon=0.5)",
                issuer="market-analyst",
            )
        except BudgetExhausted as exc:
            print(f"analyst: a third release refused     -> {exc}")
        print()

        # The regulator ranks exactly.  A repeat re-publishes the answer
        # already released: no ring runs, so no party is exposed again.
        top3 = "SELECT TOP 3 amount FROM claims"
        outcome = federation.execute(top3, issuer="regulator")
        print(f"regulator: TOP 3                     = {list(outcome.values)}")
        ledger = parties.ledger
        runs = ledger.runs_charged
        repeat = federation.execute(top3, issuer="regulator")
        print(
            f"regulator: TOP 3 again               -> cached={repeat.cached}, "
            f"rounds={repeat.rounds}, runs charged {runs} -> {ledger.runs_charged}"
        )
        # Every new ranking statement runs the ring — until the budget runs dry.
        ran = 1
        try:
            for k in range(1, 10):
                outcome = federation.execute(
                    f"SELECT BOTTOM {k} amount FROM claims", issuer="regulator"
                )
                ran += 1
        except BudgetExhausted as exc:
            print(f"regulator: ran {ran} ranking queries, then -> {exc}")
        print(f"regulator: last answer               = {list(outcome.values)}")
        print()

        print("tenants:")
        for issuer, account in federation.router.tenant_snapshot().items():
            print(
                f"  {issuer:<14} eps {account['dp_epsilon_spent']:g} of "
                f"{account['dp_epsilon_budget']}, LoP {account['lop_spent']:.4f} of "
                f"{account['lop_budget']}, {account['refusals']} refused"
            )
        print()
        print("audit log:")
        for entry in parties.audit:
            print(f"  {entry.entry_id:>3} {entry.issuer:<14} {entry.statement}")
        print()
        print(f"exposure ledger after {ledger.runs_charged} runs:")
        for party in sorted(ledger.exposures):
            print(f"  {party:<14} {ledger.exposure(party):.4f}")


if __name__ == "__main__":
    main()
