"""The precision metric for top-k results (Section 5.4).

"Assume TopK is the real set of top-k values and R is the set of top-k
values returned.  We define the precision as |R ∩ TopK| / K."  Both sides
are multisets (duplicate values count separately), consistent with the
global vector being an ordered multiset.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.vectors import multiset_intersection_size


def precision(returned: Sequence[float], truth: Sequence[float], k: int) -> float:
    """``|returned ∩ truth| / k`` with multiset semantics."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return multiset_intersection_size(returned, truth) / k
