"""Randomization-probability schedules (Equation 2 and ablation variants).

The paper drives the protocol with an exponentially decaying randomization
probability ``P_r(r) = p0 * d^(r-1)`` (Equation 2).  Section 7 notes that
"given the probabilistic scheme, it is possible to design other forms of
randomization probability"; the linear and constant-cutoff schedules here
exist for exactly that ablation (``tests/experiments/test_ablations.py``).

All schedules map a 1-based round number to a probability in [0, 1] and must
be (weakly) decreasing so that the protocol converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ScheduleError(ValueError):
    """Raised for invalid schedule parameters."""


@dataclass(frozen=True)
class ExponentialSchedule:
    """The paper's schedule: ``P_r(r) = p0 * d^(r-1)`` (Equation 2).

    ``p0`` is the initial randomization probability, ``d`` the dampening
    factor.  ``p0 = 0`` reduces the protocol to the naive deterministic one
    (Section 3.3).
    """

    p0: float = 1.0
    d: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 <= 1.0:
            raise ScheduleError(f"p0 must be in [0, 1], got {self.p0}")
        if not 0.0 < self.d <= 1.0:
            raise ScheduleError(f"d must be in (0, 1], got {self.d}")

    def probability(self, round_number: int) -> float:
        if round_number < 1:
            raise ScheduleError(f"rounds are 1-based, got {round_number}")
        return self.p0 * self.d ** (round_number - 1)

    def cumulative_randomization(self, rounds: int) -> float:
        """``prod_{j=1..r} P_r(j) = p0^r * d^(r(r-1)/2)``.

        This is the failure term of the correctness bound (Equation 3): the
        probability that a max-holder randomized in every one of ``rounds``
        rounds.
        """
        if rounds < 0:
            raise ScheduleError("rounds must be non-negative")
        if rounds == 0:
            return 1.0
        if self.p0 == 0.0:
            return 0.0
        log_term = rounds * math.log(self.p0) if self.p0 < 1.0 else 0.0
        log_term += (rounds * (rounds - 1) / 2) * math.log(self.d) if self.d < 1.0 else 0.0
        return math.exp(log_term)


@dataclass(frozen=True)
class LinearSchedule:
    """Ablation: ``P_r(r) = max(0, p0 - slope*(r-1))``."""

    p0: float = 1.0
    slope: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 <= 1.0:
            raise ScheduleError(f"p0 must be in [0, 1], got {self.p0}")
        if self.slope <= 0.0:
            raise ScheduleError("slope must be positive for convergence")

    def probability(self, round_number: int) -> float:
        if round_number < 1:
            raise ScheduleError(f"rounds are 1-based, got {round_number}")
        return max(0.0, self.p0 - self.slope * (round_number - 1))


@dataclass(frozen=True)
class ConstantCutoffSchedule:
    """Ablation: ``P_r(r) = p0`` for ``r <= cutoff``, 0 afterwards."""

    p0: float = 0.5
    cutoff: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.p0 < 1.0:
            raise ScheduleError(
                f"p0 must be in [0, 1) (p0=1 would never converge), got {self.p0}"
            )
        if self.cutoff < 0:
            raise ScheduleError("cutoff must be non-negative")

    def probability(self, round_number: int) -> float:
        if round_number < 1:
            raise ScheduleError(f"rounds are 1-based, got {round_number}")
        return self.p0 if round_number <= self.cutoff else 0.0


#: Union of all supported schedules (anything with a ``probability`` method).
Schedule = ExponentialSchedule | LinearSchedule | ConstantCutoffSchedule

#: The paper's default parameters, selected by the Figure 9 tradeoff study.
PAPER_DEFAULT_SCHEDULE = ExponentialSchedule(p0=1.0, d=0.5)
