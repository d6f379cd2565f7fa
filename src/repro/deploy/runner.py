"""Deploy and drive a full protocol run over localhost TCP.

This is the deployment-shaped counterpart of
:func:`repro.core.driver.run_protocol_on_vectors`: the same initialization
module (random ring, random starter, randomization parameters), but each
party is a real server thread with its own port, and the token travels as
framed bytes over actual sockets.  Intended for integration testing and for
demonstrating that the protocol logic is transport-agnostic; the simulator
remains the tool for measured experiments (it can account for every byte).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.driver import RunConfig
from ..core.params import ProtocolParams
from ..core.session import RunSetup, initialize_run, prepare_query_vectors
from ..database.query import TopKQuery
from .tcp_node import TcpNodeError, TcpParty


class DeployError(RuntimeError):
    """Raised when a TCP deployment fails to complete."""


@dataclass
class TcpRunResult:
    """Outcome of a TCP-deployed protocol run."""

    final_vector: list[float]
    ring_order: tuple[str, ...]
    starter: str
    addresses: dict[str, tuple[str, int]]
    per_party_results: dict[str, list[float]]
    local_vectors: dict[str, list[float]]
    #: Per-party passive logs: (round, kind, vector) as received.
    observations: dict[str, list[tuple[int, str, tuple[float, ...]]]] = field(
        default_factory=dict
    )


def initialize_deployment(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    params: ProtocolParams | None,
    protocol: str,
    seed: int | None,
) -> RunSetup:
    """Validate a deployment's inputs and run the shared initialization module.

    Returns the simulator's own :func:`~repro.core.session.initialize_run`
    set-up, so a socket run and a simulated run with the same inputs and
    seed are the same run.
    """
    if query.smallest:
        raise DeployError("deployments expect a plain top-k query; negate first")
    if len(local_vectors) < 3:
        raise DeployError(f"the protocol requires n >= 3 parties, got {len(local_vectors)}")
    prepared = prepare_query_vectors(local_vectors, query)
    config = RunConfig(
        protocol=protocol,
        params=params or ProtocolParams.paper_defaults(),
        seed=seed,
    )
    return initialize_run(prepared, config)


def assemble_result(
    setup: RunSetup,
    *,
    addresses: dict[str, tuple[str, int]],
    finals: dict[str, list[float] | None],
    observations: dict[str, list[tuple[int, str, tuple[float, ...]]]],
) -> TcpRunResult:
    """Check every party ended on the starter's result and package the run."""
    final = finals[setup.starter]
    if final is None:
        raise DeployError("starter finished without a result")
    disagreeing = [n for n, vec in finals.items() if vec != final]
    if disagreeing:
        raise DeployError(f"parties disagree on the result: {disagreeing}")
    return TcpRunResult(
        final_vector=list(final),
        ring_order=setup.ring.members,
        starter=setup.starter,
        addresses=addresses,
        per_party_results={n: list(vec) for n, vec in finals.items()},
        local_vectors=setup.vectors,
        observations=observations,
    )


def run_tcp_topk(
    local_vectors: dict[str, list[float]],
    query: TopKQuery,
    *,
    params: ProtocolParams | None = None,
    protocol: str = "probabilistic",
    seed: int | None = None,
    host: str = "127.0.0.1",
    timeout: float = 30.0,
    connect_timeout: float = 5.0,
    connect_retries: int = 3,
) -> TcpRunResult:
    """Run one top-k query with every party on its own TCP endpoint.

    Only plain (non-negated) top-k queries are supported here; min/bottom-k
    callers should negate values as :mod:`repro.core.driver` does.
    """
    setup = initialize_deployment(local_vectors, query, params, protocol, seed)
    node_ids, ring, starter = setup.node_ids, setup.ring, setup.starter

    parties: dict[str, TcpParty] = {}
    try:
        for node_id, algorithm in setup.algorithms.items():
            parties[node_id] = TcpParty(
                node_id,
                algorithm,
                host=host,
                is_starter=(node_id == starter),
                total_rounds=setup.total_rounds,
                connect_timeout=connect_timeout,
                connect_retries=connect_retries,
                # No retry_rng from the run RNG: jitter is timing-only, and
                # drawing here would shift the algorithm seed streams away
                # from the simulator's (breaking TCP/simulator parity).
            )
        for node_id in node_ids:
            successor = ring.successor(node_id)
            parties[node_id].successor_id = successor
            parties[node_id].successor_address = parties[successor].address
        for party in parties.values():
            party.start_serving()

        parties[starter].kick_off([float(v) for v in query.identity_vector()])

        for node_id in node_ids:
            if not parties[node_id].finished.wait(timeout=timeout):
                raise DeployError(
                    f"party {node_id!r} did not finish within {timeout}s"
                )
            error = parties[node_id].error
            if error is not None:
                raise DeployError(f"party {node_id!r} failed: {error}") from error
    finally:
        for party in parties.values():
            party.shutdown()

    return assemble_result(
        setup,
        addresses={n: parties[n].address for n in node_ids},
        finals={n: parties[n].final_result for n in node_ids},
        observations={n: list(parties[n].observations) for n in node_ids},
    )


__all__ = ["DeployError", "TcpNodeError", "TcpRunResult", "run_tcp_topk"]
