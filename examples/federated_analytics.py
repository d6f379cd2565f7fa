#!/usr/bin/env python3
"""A full federated-analytics session: SQL queries, mixed protocols, audit.

Shows the library's highest-level API: a :class:`repro.federation.Federation`
of six logistics companies answering a battery of statistics questions about
their (private) shipment weights — ranking queries through the paper's
probabilistic protocol, additive aggregates through masked secure sums —
and closing with the governance artifact: the session audit log.

Run:  python examples/federated_analytics.py
"""

import random

from repro import PAPER_DOMAIN, database_from_values
from repro.federation import Federation

COMPANIES = ("northfreight", "baltic-lines", "cargoworks", "transpolar",
             "medhaul", "pacificway")


def main() -> None:
    rng = random.Random(77)
    federation = Federation(domain=PAPER_DOMAIN, seed=77)
    for company in COMPANIES:
        weights = [rng.randint(1, 10_000) for _ in range(80)]
        federation.register(
            database_from_values(company, weights, table="shipments",
                                 attribute="weight_kg")
        )

    print(f"federation members: {', '.join(federation.members)}")
    print()

    statements = [
        "SELECT TOP 5 weight_kg FROM shipments",
        "SELECT MAX(weight_kg) FROM shipments",
        "SELECT MIN(weight_kg) FROM shipments",
        "SELECT BOTTOM 3 weight_kg FROM shipments",
        "SELECT COUNT(weight_kg) FROM shipments",
        "SELECT SUM(weight_kg) FROM shipments",
        "SELECT AVG(weight_kg) FROM shipments",
    ]
    for statement in statements:
        outcome = federation.execute(statement, issuer="sector-analyst")
        values = ", ".join(f"{v:g}" for v in outcome.values)
        print(f"{statement:<44} -> {values}")
        print(
            f"{'':<44}    [{outcome.protocol}; {outcome.rounds} rounds, "
            f"{outcome.messages} messages]"
        )
    print()

    print("session audit log (the governance artifact):")
    for entry in federation.audit:
        print(
            f"  {entry.entry_id:>3} {entry.issuer:<15} {entry.protocol:<14} "
            f"{entry.messages:>4} msgs  {entry.statement}"
        )


if __name__ == "__main__":
    main()
