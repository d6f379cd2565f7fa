"""k-secure-sum: segmented, shuffled-shares secure sum (Sheikh et al., arXiv:1003.4071).

The plain ring secure sum (:mod:`repro.extensions.securesum`) is exact and
cheap, but two colluding neighbors sandwiching a victim can difference the
running total and recover the victim's *entire* value.  The k-secure-sum
variant hardens this: every party splits its value into ``k`` additive
segments and the ring runs ``k`` passes, each carrying one segment per
party over a **freshly shuffled** ring order with a fresh starter and a
fresh starter mask.  A sandwiching coalition in one pass learns only that
pass's segment, and the reshuffle makes the same coalition unlikely to
sandwich the same victim on every pass — to recover a value they must win
all ``k`` rounds.

Exactness: for integral inputs the segment shares and the starter masks
are drawn as integers, so every round total is computed in exact float
arithmetic (magnitudes stay far below 2**53) and the grand total equals
``sum(values.values())`` bit-for-bit.  Continuous inputs degrade to the
usual float-rounding tolerance of the masked ring.

Built on the same substrate as everything else — :class:`~repro.network.ring.RingTopology`,
:class:`~repro.network.transport.InMemoryTransport`,
:class:`~repro.network.node.ProtocolNode` — so traffic accounting and
event logging come for free, and :class:`~repro.federation.coordinator.Federation`
can swap it in for its additive aggregates via ``secure_sum_segments=k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..network.ring import RingTopology
from ..network.stats import TrafficStats
from .securesum import SecureSumError, masked_ring_pass

#: Segment shares for integral inputs are drawn in this symmetric range;
#: with masks below ``mask_scale`` every partial stays far below 2**53.
_SHARE_RANGE = 10**9


@dataclass(frozen=True)
class KSecureSumRound:
    """Public artifacts of one segment pass."""

    ring_order: tuple[str, ...]
    starter: str
    mask: float
    total: float


@dataclass
class KSecureSumResult:
    """Outcome of one k-secure-sum run: the grand total plus per-pass detail."""

    total: float
    rounds: tuple[KSecureSumRound, ...]
    stats: TrafficStats

    @property
    def segments(self) -> int:
        return len(self.rounds)


def _split(value: float, segments: int, rng: random.Random) -> list[float]:
    """Additively split ``value`` into ``segments`` shares.

    Integral values get integer shares (exact reassembly); continuous
    values get uniform float shares.
    """
    if segments == 1:
        return [float(value)]
    if float(value).is_integer():
        shares = [float(rng.randint(-_SHARE_RANGE, _SHARE_RANGE)) for _ in range(segments - 1)]
    else:
        shares = [rng.uniform(-float(_SHARE_RANGE), float(_SHARE_RANGE)) for _ in range(segments - 1)]
    shares.append(float(value) - sum(shares))
    return shares


def run_k_secure_sum(
    values: dict[str, float],
    *,
    segments: int = 3,
    seed: int | None = None,
    mask_scale: float = 1e12,
) -> KSecureSumResult:
    """Privately compute ``sum(values.values())`` in ``segments`` shuffled passes."""
    if len(values) < 3:
        raise SecureSumError(
            f"k-secure-sum requires n >= 3 parties, got {len(values)}"
        )
    if segments < 1:
        raise SecureSumError(f"segments must be >= 1, got {segments}")
    if mask_scale <= 0:
        raise SecureSumError("mask_scale must be positive")
    rng = random.Random(seed)
    node_ids = sorted(values)
    # Draw every party's segment shares up front, in sorted party order,
    # so the share stream is independent of the per-pass shuffles.
    shares = {node_id: _split(values[node_id], segments, rng) for node_id in node_ids}

    stats = TrafficStats()
    rounds: list[KSecureSumRound] = []
    grand_total = 0.0
    mask_low = int(mask_scale) // 2
    mask_high = int(mask_scale)
    for segment in range(segments):
        ring = RingTopology.random(node_ids, rng)  # fresh shuffle per pass
        starter = rng.choice(node_ids)
        # Integer mask: keeps integral-share passes exact (see module doc).
        mask = float(rng.randint(mask_low, mask_high))
        round_total, pass_stats = masked_ring_pass(
            {node_id: shares[node_id][segment] for node_id in node_ids},
            ring,
            starter,
            mask,
        )
        if round_total is None:
            raise SecureSumError(f"k-secure-sum pass {segment} did not terminate")
        grand_total += round_total
        stats.merge(pass_stats)
        rounds.append(
            KSecureSumRound(
                ring_order=ring.members,
                starter=starter,
                mask=mask,
                total=round_total,
            )
        )
    return KSecureSumResult(total=grand_total, rounds=tuple(rounds), stats=stats)


__all__ = [
    "KSecureSumResult",
    "KSecureSumRound",
    "run_k_secure_sum",
]
