"""Distribution exposure: Bayesian multi-round aggregation (Section 7, #1).

The paper's first item of future work: "extending and generalizing the
privacy analysis on the probability distribution of the data using
aggregated information from multiple rounds."  Section 4.3 already observes
that aggregating a node's outputs across rounds "does not help with
determining its exact data value, though it may help with determining the
probability distribution of the value."  This module makes that concern
quantitative.

We model the strongest Section 4.3 adversary — colluding neighbours who see
both the vector entering and the vector leaving the victim every round — as
an exact Bayesian observer for the max protocol (k = 1).  Knowing the public
randomization schedule, the likelihood of one observed hop is:

* ``g_out == g_in`` (pass or coincidental noise):
  ``L(v) = 1``            for ``v <= g_in``
  ``L(v) = P_r/(v-g_in)`` for ``v > g_in``  (noise drew exactly ``g_in``)
* ``g_out > g_in`` (reveal or noise):
  ``L(v) = 0``              for ``v < g_out``
  ``L(v) = 1 - P_r``        for ``v == g_out``  (reveal)
  ``L(v) = P_r/(v-g_in)``   for ``v > g_out``   (noise drew ``g_out``)

The posterior over the victim's value is the normalized product across
rounds, starting from a uniform prior over the public integer domain.  The
exposure metrics are information-theoretic: entropy reduction relative to
the prior, the posterior's MAP mass, and the credible mass near the true
value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.results import ProtocolResult
from ..core.schedule import ExponentialSchedule
from .adversary import AdversaryError, _vector_consumed


@dataclass(frozen=True)
class PosteriorReport:
    """The adversary's end state about one victim's value."""

    victim: str
    posterior: np.ndarray  # probability per domain value, low..high
    domain_low: int
    prior_entropy_bits: float
    posterior_entropy_bits: float
    map_value: float
    map_probability: float
    true_value: float
    true_value_probability: float

    @property
    def entropy_reduction_bits(self) -> float:
        """Bits of information the adversary gained about the victim."""
        return self.prior_entropy_bits - self.posterior_entropy_bits


def _entropy_bits(p: np.ndarray) -> float:
    mass = p[p > 0]
    return float(-(mass * np.log2(mass)).sum())


def _hop_likelihood(
    values: np.ndarray, g_in: float, g_out: float, p_r: float
) -> np.ndarray:
    """Likelihood of (g_in -> g_out) for every candidate value of ``v``."""
    likelihood = np.zeros_like(values, dtype=float)
    above_in = values > g_in
    with np.errstate(divide="ignore", invalid="ignore"):
        noise_density = np.where(above_in, p_r / (values - g_in), 0.0)
    if g_out < g_in:
        # The global value never decreases across a node; an observation
        # like this means corrupted inputs.
        raise AdversaryError(f"non-monotone hop: {g_in} -> {g_out}")
    if g_out == g_in:
        likelihood[~above_in] = 1.0
        likelihood[above_in] = noise_density[above_in]
    else:
        reveal = values == g_out
        likelihood[reveal] = 1.0 - p_r
        noise_possible = values > g_out
        likelihood[noise_possible] += noise_density[noise_possible]
    return likelihood


def coalition_posterior(result: ProtocolResult, victim: str) -> PosteriorReport:
    """Exact multi-round Bayesian posterior for a colluding-neighbour pair.

    Defined for max-protocol (k = 1) runs on integral domains; the general
    top-k posterior requires joint inference over k slots and is out of
    scope (as it was for the paper).
    """
    if result.query.k != 1:
        raise AdversaryError("distribution exposure is modelled for k=1 runs")
    if not result.query.domain.integral:
        raise AdversaryError("distribution exposure needs an integral domain")
    if victim not in result.ring_order:
        raise AdversaryError(f"unknown victim {victim!r}")
    schedule = _exponential_schedule(result)

    low = int(result.query.domain.low)
    high = int(result.query.domain.high)
    values = np.arange(low, high + 1, dtype=float)
    posterior = np.full(values.shape, 1.0 / len(values))
    prior_entropy = _entropy_bits(posterior)

    outputs = result.event_log.outputs_of(victim)
    for round_number in sorted(outputs):
        consumed = _vector_consumed(result, victim, round_number)
        if consumed is None:
            continue
        g_in = float(consumed[0])
        g_out = float(outputs[round_number][0])
        p_r = schedule.probability(round_number)
        likelihood = _hop_likelihood(values, g_in, g_out, p_r)
        updated = posterior * likelihood
        total = updated.sum()
        if total <= 0.0:
            # Numerically impossible trace under the model (e.g. the victim
            # holds the max and revealed; the posterior collapses onto it).
            # Keep the previous posterior rather than dividing by zero.
            continue
        posterior = updated / total

    true_value = float(result.local_vectors[victim][0])
    map_index = int(posterior.argmax())
    return PosteriorReport(
        victim=victim,
        posterior=posterior,
        domain_low=low,
        prior_entropy_bits=prior_entropy,
        posterior_entropy_bits=_entropy_bits(posterior),
        map_value=float(values[map_index]),
        map_probability=float(posterior[map_index]),
        true_value=true_value,
        true_value_probability=float(posterior[int(true_value) - low]),
    )


def _exponential_schedule(result: ProtocolResult) -> ExponentialSchedule:
    """The public schedule the adversary knows.

    The result object does not carry protocol parameters (they are public
    anyway); runs driven by the experiment harness use the paper's
    exponential family, which we reconstruct from metadata when present and
    default to the paper's (1, 1/2) otherwise.
    """
    schedule = getattr(result, "schedule", None)
    if isinstance(schedule, ExponentialSchedule):
        return schedule
    return ExponentialSchedule(p0=1.0, d=0.5)


def entropy_reduction_by_round(
    result: ProtocolResult, victim: str
) -> list[tuple[int, float]]:
    """(round, cumulative entropy reduction in bits) — the aggregation curve.

    Quantifies exactly the Section 7 concern: how much *more* the coalition
    knows about the victim's value distribution as rounds accumulate.
    """
    if result.query.k != 1:
        raise AdversaryError("distribution exposure is modelled for k=1 runs")
    schedule = _exponential_schedule(result)
    low = int(result.query.domain.low)
    high = int(result.query.domain.high)
    values = np.arange(low, high + 1, dtype=float)
    posterior = np.full(values.shape, 1.0 / len(values))
    prior_entropy = _entropy_bits(posterior)

    curve = []
    outputs = result.event_log.outputs_of(victim)
    for round_number in sorted(outputs):
        consumed = _vector_consumed(result, victim, round_number)
        if consumed is None:
            continue
        p_r = schedule.probability(round_number)
        likelihood = _hop_likelihood(
            values, float(consumed[0]), float(outputs[round_number][0]), p_r
        )
        updated = posterior * likelihood
        total = updated.sum()
        if total > 0:
            posterior = updated / total
        curve.append((round_number, prior_entropy - _entropy_bits(posterior)))
    return curve
