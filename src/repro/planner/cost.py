"""The planner's cost model: analytic formulas times measured constants.

Everything the paper's analysis predicts, it predicts *exactly* on this
codebase, because the simulator implements the very model the analysis
assumes:

* **rounds** — Equation 4 (:func:`repro.core.params.minimum_rounds`),
  independent of the federation size;
* **messages** — one token hop per node per round plus the termination
  round: ``n * (rounds + 1)`` (Section 4.2, confirmed by the transport's
  per-message accounting and the kernel's closed-form reconstruction);
* **simulated latency** — the token is sequential and every link takes
  the same delay, so simulated seconds are exactly ``messages x per-hop
  latency``;
* **expected LoP** — the Equation 6 bound for the probabilistic protocol,
  the Equation 5 closed form for the naive one.

Only two quantities need *measured* calibration constants, because they
depend on encodings and hardware rather than on the protocol: bytes per
message (wire framing + k encoded values) and wall-clock seconds per
message (MT19937 seeding dominates; see ROADMAP).  :class:`Calibration`
carries defaults measured on the reference container; a deployment that
measured its own passes them to the planner (``docs/PLANNER.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.privacy_bounds import expected_lop_bound, naive_average_lop
from ..core.params import ProtocolParams

#: Protocol names a plan can carry (driver names, plus the additive path).
PROBABILISTIC = "probabilistic"
NAIVE = "naive"
SECURE_SUM = "secure-sum"


@dataclass(frozen=True)
class Calibration:
    """Measured per-unit constants composing the analytic cost formulas.

    Defaults were measured on the in-memory transport.
    """

    #: Per-hop simulated latency (the transport's ``LINK_SECONDS``).
    hop_seconds: float = 0.001
    #: Wire bytes per token message, excluding the k-vector payload.
    message_overhead_bytes: float = 79.0
    #: Wire bytes per encoded k-vector entry.
    bytes_per_value: float = 7.0
    #: Bytes per secure-sum message (scalar + mask magnitude).
    additive_message_bytes: float = 97.0
    #: Wall-clock seconds per message on the session substrate (advisory;
    #: hardware-dependent, unlike everything else in this model).
    wall_seconds_per_message: float = 3e-5


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost and privacy of one candidate plan."""

    protocol: str
    n_parties: int
    rounds: int
    messages: int
    bytes: float
    #: Simulated protocol seconds (what the service clock advances by).
    simulated_seconds: float
    #: Advisory wall-clock estimate (hardware-dependent).
    wall_seconds: float
    #: Predicted expected average LoP: the Eq. 6 bound (probabilistic),
    #: the Eq. 5 closed form (naive), or 0.0 (mask-blinded secure sums).
    #: Eq. 6 bounds a *single* extraction; the Section 5.3 estimator takes
    #: each node's peak exposure over its k local items, which the per-item
    #: expectation does not dominate for k > 1 — so the prediction ledger
    #: audits this column only when ``extracted_values == 1``.
    expected_lop: float
    #: How many values the planned statement extracts (the query's k; 1
    #: for MAX/MIN and for additive scalars).
    extracted_values: int = 1


class CostModel:
    """Compose the analytic models with a :class:`Calibration`."""

    def __init__(self, calibration: Calibration | None = None) -> None:
        self.calibration = calibration or Calibration()

    # -- ranking ----------------------------------------------------------

    def ranking_estimate(
        self,
        *,
        n_parties: int,
        k: int,
        protocol: str,
        params: ProtocolParams,
    ) -> CostEstimate:
        """Predict one ranking run (probabilistic or naive protocol)."""
        if n_parties < 3:
            raise ValueError(f"the protocols require n >= 3, got {n_parties}")
        cal = self.calibration
        if protocol == PROBABILISTIC:
            rounds = params.resolved_rounds()
            schedule = params.schedule
            p0 = getattr(schedule, "p0", None)
            d = getattr(schedule, "d", None)
            if p0 is not None and p0 <= 0.0:
                # A never-randomizing schedule is the naive protocol in
                # disguise: exposure follows the Eq. 5 closed form, whatever
                # its d.
                lop = naive_average_lop(n_parties)
            elif p0 is not None and d is not None and 0.0 < d < 1.0:
                lop = expected_lop_bound(p0, d)
            else:
                # Non-exponential schedules carry no closed-form bound;
                # be conservative.
                lop = 1.0
        elif protocol == NAIVE:
            rounds = 1
            lop = naive_average_lop(n_parties)
        else:
            raise ValueError(f"unknown ranking protocol {protocol!r}")
        messages = n_parties * (rounds + 1)
        return CostEstimate(
            protocol=protocol,
            n_parties=n_parties,
            rounds=rounds,
            messages=messages,
            bytes=messages * (cal.message_overhead_bytes + cal.bytes_per_value * k),
            simulated_seconds=messages * cal.hop_seconds,
            wall_seconds=messages * cal.wall_seconds_per_message,
            expected_lop=lop,
            extracted_values=k,
        )

    # -- additive ---------------------------------------------------------

    def additive_estimate(self, *, n_parties: int, operation: str) -> CostEstimate:
        """Predict a SUM/COUNT/AVG statement (mask-blinded secure sums).

        AVG runs two rings (sum + count).  Secure sums are charged zero
        exposure by the ledger, and the service clock does not advance for
        them (``QueryOutcome.simulated_seconds`` is 0.0 on the additive
        path), so the simulated-seconds prediction is zero by design even
        though messages are not.
        """
        if n_parties < 3:
            raise ValueError(f"secure sums require n >= 3, got {n_parties}")
        rings = 2 if operation == "AVG" else 1
        messages = rings * 2 * n_parties
        cal = self.calibration
        return CostEstimate(
            protocol=SECURE_SUM,
            n_parties=n_parties,
            rounds=1,
            messages=messages,
            bytes=messages * cal.additive_message_bytes,
            simulated_seconds=0.0,
            wall_seconds=messages * cal.wall_seconds_per_message,
            expected_lop=0.0,
        )


__all__ = [
    "Calibration",
    "CostEstimate",
    "CostModel",
    "NAIVE",
    "PROBABILISTIC",
    "SECURE_SUM",
]
