"""The naive deterministic protocol (Section 3.1) — the paper's baseline.

A single round in which every node replaces the incoming global vector with
the true merged top-k of the vector and its own values.  The paper discusses
two variants that differ only in how the starting node is chosen:

* **naive** — fixed starting node; the starter suffers *provable exposure*
  (its successor sees its value verbatim) and nodes near the start leak with
  probability ~1/i.
* **anonymous naive** — a randomized starting scheme; the same average loss
  of privacy but no worst-case victim, because an adversary cannot tell who
  started the ring.

Both reuse the same local computation below; the starting-node policy lives
in the driver.
"""

from __future__ import annotations

from .vectors import merge_topk, validate_vector


class NaiveTopKAlgorithm:
    """Deterministic local computation: always return the real merged top-k.

    Setting the randomization probability to zero reduces the probabilistic
    protocol to exactly this (Section 3.3), which is also how the correctness
    tests cross-check the two implementations.
    """

    def __init__(self, local_values: list[float], k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if len(local_values) > k:
            raise ValueError(
                f"local vector holds {len(local_values)} values; at most k={k} "
                "may participate (sort-and-truncate locally first)"
            )
        self.k = k
        self.local_values = sorted((float(v) for v in local_values), reverse=True)

    def compute(self, incoming: list[float], round_number: int) -> list[float]:
        validate_vector(incoming, self.k)
        return merge_topk(incoming, self.local_values, self.k)
