#!/usr/bin/env python3
"""The protocol on a real network stack: one TCP endpoint per party.

Everything else in this repository runs on the in-memory simulator; this
example deploys the same local algorithms over localhost sockets — each
organization is a server thread with its own port, tokens travel as framed
bytes — and cross-checks the answer against a simulator run on identical
inputs.

Run:  python examples/tcp_deployment.py
"""

import random

from repro import ProtocolParams, RunConfig, TopKQuery, run_protocol_on_vectors
from repro.deploy import run_tcp_topk

PARTIES = ("clearing-a", "clearing-b", "clearing-c", "clearing-d", "clearing-e")


def main() -> None:
    rng = random.Random(31)
    exposures = {
        name: [float(rng.randint(1, 10_000)) for _ in range(12)] for name in PARTIES
    }
    query = TopKQuery(table="positions", attribute="exposure", k=4)
    params = ProtocolParams.paper_defaults()

    print("deploying one TCP endpoint per party (localhost)...")
    outcome = run_tcp_topk(exposures, query, params=params, seed=31)
    print(f"ring order : {' -> '.join(outcome.ring_order)}")
    for party, address in sorted(outcome.addresses.items()):
        print(f"  {party:<12} listening on {address[0]}:{address[1]}")
    print(f"top-4 exposures over TCP : {outcome.final_vector}")
    print(f"all parties agree        : "
          f"{all(v == outcome.final_vector for v in outcome.per_party_results.values())}")

    simulated = run_protocol_on_vectors(
        exposures, query, RunConfig(params=params, seed=31)
    )
    print(f"simulator on same inputs : {simulated.final_vector}")
    truth = sorted((v for vs in exposures.values() for v in vs), reverse=True)[:4]
    print(f"ground truth             : {truth}")
    assert outcome.final_vector == truth == simulated.final_vector
    print("TCP deployment, simulator and ground truth all agree.")


if __name__ == "__main__":
    main()
