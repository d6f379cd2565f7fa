"""Secure sum over the ring via additive masking.

A classic building block the paper's ecosystem implies (its Section 7 plans
a privacy-preserving kNN classifier, whose vote tally needs a private
aggregate).  The starting node adds a large random mask to its value before
passing it on; every other node adds its own value to the running total; the
mask is subtracted when the token returns.  Under the semi-honest model a
single observer sees only mask-blinded partial sums, so no individual value
is exposed; the starter is the only party that could unblind, and it only
ever sees the completed sum.

Reuses the network substrate (ring, transport, nodes), so traffic accounting
and event logging work exactly as for the top-k protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..network.node import ProtocolNode
from ..network.ring import RingTopology
from ..network.stats import TrafficStats
from ..network.transport import InMemoryTransport


class SecureSumError(RuntimeError):
    """Raised when a secure-sum run is misconfigured."""


@dataclass
class SecureSumResult:
    """Outcome of one secure-sum run."""

    total: float
    ring_order: tuple[str, ...]
    starter: str
    stats: TrafficStats
    mask: float  # retained for tests; known only to the starter in deployment


class _AddValueAlgorithm:
    """Local computation: add our value (plus, for the starter, the mask)."""

    def __init__(self, value: float, mask: float = 0.0) -> None:
        self.value = float(value)
        self.mask = float(mask)
        self._contributed = False

    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        if len(incoming) != 1:
            raise SecureSumError(f"secure sum carries a scalar, got {incoming}")
        if round_number > 1 or self._contributed:
            # Single-round protocol: later traffic (if any) passes through.
            return incoming
        self._contributed = True
        return [incoming[0] + self.value + self.mask]


def masked_ring_pass(
    values: dict[str, float], ring: RingTopology, starter: str, mask: float
) -> tuple[float | None, TrafficStats]:
    """One pass of ``values`` around ``ring``: ``(sum, traffic)``.

    The starter blinds the running total with ``mask`` and unblinds it when
    the token returns; the sum is ``None`` if the pass never terminated.
    """
    transport = InMemoryTransport()
    nodes = {}
    for node_id in ring.members:
        algorithm = _AddValueAlgorithm(
            values[node_id], mask=mask if node_id == starter else 0.0
        )
        node = nodes[node_id] = ProtocolNode(
            node_id, algorithm, transport.send, is_starter=(node_id == starter)
        )
        transport.register(node_id, node.handle)
        node.successor = ring.successor(node_id)
    nodes[starter].start([0.0])
    transport.run_until_idle()
    blinded = nodes[starter].final_result
    return (None if blinded is None else blinded[0] - mask), transport.stats


def run_secure_sum(
    values: dict[str, float],
    *,
    seed: int | None = None,
    mask_scale: float = 1e12,
) -> SecureSumResult:
    """Privately compute ``sum(values.values())`` over a ring.

    ``mask_scale`` bounds the uniform random mask.  It must dwarf any
    plausible partial sum, otherwise the first few nodes could bound the
    starter's value.
    """
    if len(values) < 3:
        raise SecureSumError(f"secure sum requires n >= 3 parties, got {len(values)}")
    if mask_scale <= 0:
        raise SecureSumError("mask_scale must be positive")
    rng = random.Random(seed)
    node_ids = sorted(values)
    ring = RingTopology.random(node_ids, rng)
    starter = rng.choice(node_ids)
    mask = rng.uniform(mask_scale / 2, mask_scale)
    total, stats = masked_ring_pass(values, ring, starter, mask)
    if total is None:
        raise SecureSumError("secure sum did not terminate")
    return SecureSumResult(
        total=total,
        ring_order=ring.members,
        starter=starter,
        stats=stats,
        mask=mask,
    )
