"""Secure kth-ranked element via domain binary search (related-work baseline).

The paper's related work cites Aggarwal, Mishra and Pinkas, "Secure
computation of the kth ranked element": instead of the full top-k *set*,
compute only the single kth-largest value (k = n/2 gives the median).  Their
protocol binary-searches the public domain, and at each probe the parties
securely compare an aggregate count against k.  We reproduce that structure
on this library's substrate: each probe asks every party for a local count
of values above the candidate, aggregated with the additive-masking secure
sum, so no party reveals which values it holds — only blinded counts flow.

Disclosure profile (documented, as the paper does for its own protocol):
each probe publishes one aggregate count, so a full run reveals
``O(log |domain|)`` points of the *global* rank function around the answer —
more aggregate information than the top-k protocol's final vector, but never
any individual party's values.  The EXPERIMENTS.md ablation
``test_topk_ring_is_cheaper_than_binary_search_for_the_kth_value``
(``tests/experiments/test_ablations.py``) compares the two protocols' costs
head to head.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import random

from ..database.query import Domain
from .securesum import run_secure_sum


class KthElementError(ValueError):
    """Raised for invalid inputs (rank out of range, empty federation...)."""


@dataclass(frozen=True)
class ProbeRecord:
    """One binary-search probe: the candidate and the published count."""

    candidate: float
    count_at_least: int


@dataclass
class KthElementResult:
    """Outcome of a kth-ranked-element run."""

    value: float
    k: int
    probes: list[ProbeRecord]
    messages_total: int

    @property
    def comparisons(self) -> int:
        return len(self.probes)


def _secure_count_at_least(
    values_by_party: Mapping[str, Sequence[float]],
    threshold: float,
    rng: random.Random,
) -> tuple[int, int]:
    """(count of values >= threshold across parties, messages spent)."""
    local = {
        party: float(sum(1 for v in values if v >= threshold))
        for party, values in values_by_party.items()
    }
    outcome = run_secure_sum(local, seed=rng.getrandbits(32))
    return round(outcome.total), outcome.stats.messages_total


def kth_largest(
    values_by_party: Mapping[str, Sequence[float]],
    k: int,
    domain: Domain,
    *,
    seed: int | None = None,
) -> KthElementResult:
    """The kth largest value across all parties' private values.

    ``k = 1`` is the max query; ``k = total/2`` the (upper) median.  Requires
    an integral domain (the binary search terminates on exact integers, as
    in the cited protocol).
    """
    if k < 1:
        raise KthElementError(f"k must be >= 1, got {k}")
    if not domain.integral:
        raise KthElementError("kth-element search requires an integral domain")
    if len(values_by_party) < 3:
        raise KthElementError(
            f"the secure-sum substrate requires n >= 3 parties, got {len(values_by_party)}"
        )
    for party, values in values_by_party.items():
        for v in values:
            if v not in domain:
                raise KthElementError(
                    f"{party}: value {v} outside the public domain"
                )
    rng = random.Random(seed)
    messages = 0
    probes: list[ProbeRecord] = []

    # The parties first confirm the rank is answerable: a secure COUNT.
    total, spent = _secure_count_at_least(values_by_party, domain.low, rng)
    messages += spent
    probes.append(ProbeRecord(float(domain.low), total))
    if total < k:
        raise KthElementError(
            f"rank {k} exceeds the federation's {total} total values"
        )

    # Invariant: count(>= lo) >= k, count(>= hi + 1) < k.
    lo, hi = int(domain.low), int(domain.high)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        count, spent = _secure_count_at_least(values_by_party, mid, rng)
        messages += spent
        probes.append(ProbeRecord(float(mid), count))
        if count >= k:
            lo = mid
        else:
            hi = mid - 1
    return KthElementResult(
        value=float(lo), k=k, probes=probes, messages_total=messages
    )


def median(
    values_by_party: Mapping[str, Sequence[float]],
    domain: Domain,
    *,
    seed: int | None = None,
) -> KthElementResult:
    """The upper median across all parties (kth largest with k = ⌈total/2⌉).

    Runs one extra secure COUNT to learn the total (itself an aggregate the
    parties agree to publish, as in the cited two-party protocol).
    """
    rng = random.Random(seed)
    total, _spent = _secure_count_at_least(values_by_party, domain.low, rng)
    if total == 0:
        raise KthElementError("no values to take a median of")
    k = (total + 1) // 2
    return kth_largest(values_by_party, k, domain, seed=seed)
