"""The service's time source: a deterministic simulated clock.

Every time-dependent decision the service makes — deadline expiry, rate-limit
refill, latency measurement — goes through a :class:`Clock`, never through
``time`` directly.  With a :class:`SimulatedClock` (the default) the gateway
advances time itself by each batch's *simulated* protocol seconds, so a
seeded workload produces bit-identical latency histograms, shed decisions and
metrics on every run — the same property the protocol simulator provides for
results.
"""

from __future__ import annotations


class Clock:
    """Interface: ``now()`` in seconds, plus ``advance`` for simulated time."""

    def now(self) -> float:
        raise NotImplementedError

    def advance(self, seconds: float) -> None:
        raise NotImplementedError


class SimulatedClock(Clock):
    """A manually-advanced clock; deterministic by construction."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time by {seconds}")
        self._now += seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now={self._now})"


__all__ = ["Clock", "SimulatedClock"]
