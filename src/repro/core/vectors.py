"""Ordered multiset (top-k vector) operations used by Algorithm 2.

The global vector "is an ordered multiset that may include duplicate values"
(Section 3.4).  We represent it as a list of floats sorted descending, always
exactly ``k`` long (the initialization module pads with the domain's lowest
value).  The operations here are the multiset union / set-difference /
merge-sort steps of Algorithm 2, factored out so they can be property-tested
in isolation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence


class VectorError(ValueError):
    """Raised when a top-k vector violates its invariants."""


def is_sorted_desc(values: Sequence[float]) -> bool:
    # A plain loop, not all(<genexpr>): this runs on every token hop of
    # every trial, and the generator frame costs more than the comparison.
    for i in range(len(values) - 1):
        if not values[i] >= values[i + 1]:
            return False
    return True


def validate_vector(vector: Sequence[float], k: int) -> None:
    """Assert the global-vector invariant: length k, sorted descending."""
    if len(vector) != k:
        raise VectorError(f"vector has length {len(vector)}, expected {k}")
    if not is_sorted_desc(vector):
        raise VectorError(f"vector is not sorted descending: {list(vector)}")


def merge_topk(
    vector: Sequence[float], values: Iterable[float], k: int
) -> list[float]:
    """Top-k of the multiset union (Algorithm 2's ``topK(G ∪ V_i)``).

    Equivalent to a merge-sort followed by truncation, as the paper suggests.
    """
    if k < 1:
        raise VectorError(f"k must be >= 1, got {k}")
    merged = sorted(list(vector) + list(values), reverse=True)
    return merged[:k]


def multiset_difference(
    minuend: Sequence[float], subtrahend: Sequence[float]
) -> list[float]:
    """Multiset difference (Algorithm 2's ``V_i' = G_i'(r) − G_{i-1}(r)``).

    Each occurrence in ``subtrahend`` cancels at most one occurrence in
    ``minuend``.  The result preserves descending order.
    """
    # Two-pointer walk over the descending-sorted operands instead of a
    # Counter: this is Algorithm 2's inner step, called once per token hop.
    sub = sorted(subtrahend, reverse=True)
    n = len(sub)
    i = 0
    result = []
    for value in sorted(minuend, reverse=True):
        while i < n and sub[i] > value:
            i += 1
        if i < n and sub[i] == value:
            i += 1
        else:
            result.append(value)
    return result


def multiset_intersection_size(a: Sequence[float], b: Sequence[float]) -> int:
    """``|A ∩ B|`` with multiplicity — the numerator of the precision metric."""
    ca, cb = Counter(a), Counter(b)
    return sum(min(ca[value], cb[value]) for value in ca)


def pad_to_k(values: Sequence[float], k: int, fill: float) -> list[float]:
    """Right-pad a short local vector with the domain's worst value.

    A node with fewer than k values still participates with a full-length
    vector; the pad values are the identity element and never win a merge.
    """
    if len(values) > k:
        raise VectorError(f"cannot pad {len(values)} values down to {k}")
    padded = sorted(values, reverse=True) + [fill] * (k - len(values))
    if not is_sorted_desc(padded):
        raise VectorError(f"fill value {fill} exceeds data values {list(values)}")
    return padded
