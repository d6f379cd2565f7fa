"""Range-exposure quantification (Section 2.3's severity discussion).

The paper's motivating example for the Loss-of-Privacy metric is a *range*
claim: in the naive protocol, node *i*'s successor can prove
``v_i <= g_i`` — formally *provable exposure* on the privacy spectrum, yet
"the severity of the privacy breach actually varies (decreases as
[the bound] increases).  At the extreme, if a = v_max, it should not be
considered a privacy breach at all."

This module turns that discussion into a number by instantiating Equation 1
for range claims under a uniform prior over the public domain:

* ``P(C | R, IR) = 1`` — the range is *proven* by the observation;
* ``P(C | R)`` — how likely the claim was anyway, knowing only the final
  result: for ``C = (v_i <= b)`` with ``v_i`` otherwise uniform on
  ``[low, v_max]`` (the result caps every value), that is
  ``(b - low + 1) / (v_max - low + 1)`` on an integral domain.

So the range LoP is ``1 − P(C | R)``: maximal for a tight bound near the
domain floor, and exactly 0 at ``b = v_max`` — the paper's extreme case.
"""

from __future__ import annotations

from ..core.results import ProtocolResult
from .adversary import naive_range_exposure


class RangeExposureError(ValueError):
    """Raised for invalid range bounds."""


def range_claim_lop(
    bound: float, result: ProtocolResult
) -> float:
    """Equation 1 for the provable claim ``v_i <= bound``.

    Assumes an integral domain and a uniform prior capped by the public
    maximum (the first element of the final vector).
    """
    domain = result.query.domain
    if not domain.integral:
        raise RangeExposureError("range LoP is defined on integral domains")
    if bound not in domain:
        raise RangeExposureError(
            f"bound {bound} lies outside the public domain"
        )
    v_max = max(result.final_vector)
    if bound >= v_max:
        # v_i <= v_max is implied by the public result: no breach.
        return 0.0
    prior = (bound - domain.low + 1) / (v_max - domain.low + 1)
    return 1.0 - prior


def node_range_lop(result: ProtocolResult, node: str) -> float:
    """The range LoP a successor can inflict on ``node`` in this run.

    For the naive protocols the successor proves ``v_i <= g_i`` (first
    forwarded value); the probabilistic protocol admits no provable range,
    so its range LoP is 0 — the Section 3.3 design goal, stated as a metric.
    """
    claim = naive_range_exposure(result, node)
    if claim is None:
        return 0.0
    return range_claim_lop(claim.high, result)
