"""Standalone shard worker: one federation behind a TCP request loop.

``python -m repro.sharding.worker`` reads a JSON shard spec on stdin,
builds a :class:`~repro.federation.coordinator.Federation` over the spec's
synthetic parties, binds an OS-assigned localhost port, announces
``PORT <n>`` on stdout, and then serves framed-JSON requests
(:mod:`repro.sharding.protocol`) until told to shut down.  This is the
process-per-shard deployment the ROADMAP's scale-out item asks for: each
shard is its own OS process speaking the deploy layer's wire framing, so
the chaos sweep can SIGKILL a *real* process and the gateway must degrade
through :class:`~repro.sharding.errors.ShardUnavailable` refusals.

Spec format::

    {
      "shard": 0,
      "seed": 2025,
      "domain": {"low": 1, "high": 10000, "integral": true},
      "attribute": "value",
      "schedule": {"p0": 1.0, "d": 0.5},      # optional; paper defaults
      "rounds": null,                           # optional explicit rounds
      "protocol": "probabilistic",             # optional
      "privacy_budget": null,                   # optional per-party LoP cap
      "parties": [
        {"owner": "org00", "tables": {"t00": [3.0, 1.0], "hot": []}}
      ],
      "types": {"t00": "REAL", "hot": "INTEGER"}
    }

Every table in ``types`` is created for every party (empty where the party
holds no rows) so the federation-wide schema precondition holds by
construction.
"""

from __future__ import annotations

import json
import socket
import sys

from ..core.driver import RunConfig
from ..core.params import ProtocolParams
from ..core.schedule import ExponentialSchedule
from ..database.database import PrivateDatabase
from ..database.query import Domain
from ..database.schema import Schema
from ..federation.coordinator import Federation
from .protocol import encode_outcome, encode_settled, recv_json, send_json


def spec_config(spec: dict) -> RunConfig:
    """The run configuration a spec's ``schedule``/``rounds``/``protocol`` name."""
    schedule_spec = spec.get("schedule") or {}
    params = ProtocolParams(
        schedule=ExponentialSchedule(
            p0=float(schedule_spec.get("p0", 1.0)),
            d=float(schedule_spec.get("d", 0.5)),
        ),
        rounds=spec.get("rounds"),
    )
    return RunConfig(
        protocol=str(spec.get("protocol", "probabilistic")), params=params
    )


def build_federation(spec: dict) -> Federation:
    """Materialize the spec's federation (deterministic per spec)."""
    domain_spec = spec.get("domain", {})
    domain = Domain(
        low=float(domain_spec.get("low", 1)),
        high=float(domain_spec.get("high", 10_000)),
        integral=bool(domain_spec.get("integral", True)),
    )
    federation = Federation(
        domain=domain,
        config=spec_config(spec),
        seed=int(spec.get("seed", 0)),
        privacy_budget=spec.get("privacy_budget"),
    )
    attribute = str(spec.get("attribute", "value"))
    types = {str(t): str(ctype) for t, ctype in spec.get("types", {}).items()}
    for party in spec.get("parties", ()):
        db = PrivateDatabase(str(party["owner"]))
        tables = {str(t): values for t, values in party.get("tables", {}).items()}
        for table_name in sorted(set(types) | set(tables)):
            ctype = types.get(table_name, "REAL")
            table = db.create_table(table_name, Schema.of((attribute, ctype)))
            values = tables.get(table_name, ())
            if values:
                cast = int if ctype == "INTEGER" else float
                table.insert_many({attribute: cast(v)} for v in values)
        federation.register(db)
    return federation


def _handle(federation: Federation, request: dict) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"ok": True}
    if op == "cache_stats":
        cache = federation.cache
        return {"ok": True, "hits": cache.hits, "misses": cache.misses}
    if op == "execute_many_settled":
        settled = federation.execute_many_settled(
            [str(s) for s in request.get("statements", ())],
            issuer=str(request.get("issuer", "anonymous")),
        )
        return {"ok": True, "results": encode_settled(settled)}
    if op == "try_cached":
        outcome = federation.try_cached(
            str(request.get("statement", "")),
            issuer=str(request.get("issuer", "anonymous")),
        )
        return {
            "ok": True,
            "outcome": None if outcome is None else encode_outcome(outcome),
        }
    if op == "deregister":
        federation.deregister(str(request["owner"]))
        return {"ok": True}
    if op == "shutdown":
        return {"ok": True, "bye": True}
    return {"ok": False, "message": f"unknown op {op!r}"}


def serve(federation: Federation, listener: socket.socket) -> None:
    """Accept loop: one connection at a time, requests served in order.

    A shard's federation is single-threaded state (seed draws, cache,
    ledger), so serial request handling is the correctness-preserving
    choice; concurrency across shards comes from running many workers.
    """
    while True:
        conn, _addr = listener.accept()
        with conn:
            while True:
                try:
                    request = recv_json(conn)
                except Exception:
                    break  # client gone; await the next connection
                try:
                    response = _handle(federation, request)
                except Exception as exc:  # noqa: BLE001 — reported, not fatal
                    response = {
                        "ok": False,
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    send_json(conn, response)
                except OSError:
                    break
                if response.get("bye"):
                    return


def main() -> int:
    spec = json.loads(sys.stdin.read())
    federation = build_federation(spec)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", int(spec.get("port", 0))))
    listener.listen(8)
    port = listener.getsockname()[1]
    print(f"PORT {port}", flush=True)
    try:
        serve(federation, listener)
    finally:
        listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
