"""Differential privacy: calibrated mechanisms and the (epsilon, delta) accountant.

The paper perturbs local answers ad hoc (Section 3's noisy rank vectors)
and *measures* the resulting loss of privacy.  This module adds the formal
counterpart: a statement suffixed with ``WITH SLO(dp_epsilon=..., [dp_delta=...])``
releases a *noisy* answer whose perturbation follows a mechanism calibrated
to the declared budget and the attribute's public :class:`~repro.database.query.Domain`
— Laplace noise for continuous domains, the two-sided geometric (discrete
Laplace) for integral ones — and every release is charged against a
:class:`PrivacyAccountant` under basic sequential composition.

Design invariants (shared with the rest of the stack):

* **Noise keyed by the answer it perturbs.** Noise is drawn from a
  ``random.Random`` seeded by SHA-256 over ``(dp seed, release key, inner
  index, the exact inner answers)``.  A release is therefore a function of
  the data only through the answer it perturbs: the same seed and workload
  produce byte-identical noisy answers, ledgers and snapshots — flat or
  sharded, and across a restart.
* **Equal inner answers give equal bytes, free.** A repeat whose inner
  (exact) answers equal the ones its key's latest release perturbed
  re-serves that release's bytes with no budget charge, whether the inner
  answers came from the cache or were re-executed.  This is sound — the
  released value is already public, and re-deriving it would give the same
  bytes — and mirrors the tenant LoP rule ("spent on cache hit" is free on
  both accounting surfaces, via the shared :class:`SpendMeter`).  Changed
  inner answers key an independent draw, charged as usual: replaying one
  draw against two answers would let an observer subtract the releases and
  learn the exact data delta.  Because nothing in the key is process
  state, a restarted federation over unchanged data re-derives the same
  bytes, so a refunded budget cannot buy fresh samples to average.
* **Typed refusals.** Budget exhaustion raises :class:`BudgetExhausted`,
  the one refusal of every budget, LoP included (distinct from the
  planner's ``PlanInfeasible`` and from :class:`DpError`); a mechanism whose
  noise would underflow to exactly zero raises :class:`DpError` instead
  of silently releasing the exact value.
* **Refuse before recording.** Like :class:`~repro.privacy.accounting.ExposureLedger`,
  the accountant checks headroom *before* mutating any meter, so a refused
  query leaves the ledger untouched.

The DP layer wraps execution rather than replacing it: the *inner*
statement (DP keys stripped; ``AVG`` decomposes into ``SUM`` + ``COUNT``
at half budget each, mirroring the sharded fan-out) runs through the
ordinary Federation/ShardedFederation machinery, so DP queries inherit
batching, caching, sharding, planning, and tracing for free.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # typing only: keeps privacy <- federation import edges acyclic
    from ..database.query import Domain
    from ..federation.sql import FederatedStatement

#: Absolute slack when comparing spend against a budget: a query that lands
#: *exactly* on the remaining budget is admitted; only a strictly positive
#: overshoot (beyond float noise) refuses.
SPEND_TOLERANCE = 1e-9


class DpError(RuntimeError):
    """A differential-privacy release cannot be constructed as requested."""


class BudgetExhausted(RuntimeError):
    """A budget cannot absorb this charge: the one budget refusal.

    ``dimension`` names the meter that refused: ``"lop"`` (a tenant's or a
    party's loss of privacy, Eq. 1), ``"epsilon"`` or ``"delta"``.
    Deliberately distinct from the planner's ``PlanInfeasible`` and from
    :class:`DpError`: the plan may be perfectly executable and the release
    constructible — the *allowance* is what ran out.
    """

    def __init__(self, message: str, *, dimension: str = "lop"):
        super().__init__(message)
        self.dimension = dimension


class DpRequired(DpError):
    """A DP-governed issuer sent a statement without ``dp_epsilon``.

    An issuer is DP-governed when a finite epsilon or delta budget applies to
    it (:attr:`PrivacyAccountant.governs`): the federation's, which covers
    every issuer, or its tenant's.  Its exact answers would walk around that
    budget, so it gets DP releases only.
    """

    def __init__(self, message: str, *, statement: str = ""):
        super().__init__(message)
        self.statement = statement


# -- the shared accounting surface -------------------------------------------


@dataclass(eq=False)
class SpendMeter:
    """One budgeted quantity and the one rule that admits a charge to it.

    A tenant's LoP (:mod:`repro.sharding.router`), each party's LoP in a
    flat federation's exposure ledger, and epsilon and delta for DP all
    meter through this surface, so exhaustion is decided in exactly one
    place.  ``budget=None`` means unmetered (infinite headroom);
    ``dimension`` names the quantity and ``holder`` whose it is, as a
    refusal reads them.  A meter is its own identity: a batch's pending
    amounts are kept per meter.
    """

    budget: float | None = None
    spent: float = 0.0
    dimension: str = "lop"
    holder: str = ""

    def would_exceed(self, amount: float) -> bool:
        """True when charging ``amount`` would overshoot the budget.

        Landing exactly on the budget (within :data:`SPEND_TOLERANCE`) is
        allowed — "budget exactly exhausted on the last round" succeeds.
        """
        if self.budget is None:
            return False
        return self.spent + amount > self.budget + SPEND_TOLERANCE

    def refusal(self, amount: float, pending: float = 0.0) -> "BudgetExhausted | None":
        """The refusal charging ``amount`` on top of ``pending`` (admitted
        earlier in the same batch, not charged yet) earns, or ``None``."""
        if not self.would_exceed(pending + amount):
            return None
        holder = f"{self.holder} " if self.holder else ""
        return BudgetExhausted(
            f"{holder}{self.dimension} budget exhausted: spent "
            f"{self.spent + pending:.9g} of {self.budget:.9g}, release needs {amount:.9g}",
            dimension=self.dimension,
        )

    def charge(self, amount: float) -> None:
        if amount < 0.0:
            raise ValueError(f"negative charge: {amount}")
        self.spent += amount


#: One statement's draw on one meter: the meter, the amount, and the key
#: admitting it (a release's key; a ranking statement's canonical form).
Draw = tuple[SpendMeter, float, tuple]


@dataclass
class PendingBudget:
    """What one batch admitted but has not charged yet, per meter.

    A batch is one issuer's, so the gate's and the tenant's epsilon meters
    see the same pending epsilon, and each party's LoP meter its own share
    of the batch's ranking statements.  A draw under a key admitted earlier
    in the batch is free: it is a duplicate, and runs (and charges) once.
    """

    amounts: dict[SpendMeter, float] = field(default_factory=dict)
    keys: set = field(default_factory=set)

    def refusal(self, draws: "Sequence[Draw]") -> "BudgetExhausted | None":
        """The first refusal among ``draws`` on top of what is pending."""
        for meter, amount, key in draws:
            if key not in self.keys:
                refusal = meter.refusal(amount, self.amounts.get(meter, 0.0))
                if refusal is not None:
                    return refusal
        return None

    def join(self, draws: "Sequence[Draw]") -> None:
        """Admit ``draws``: each one under a new key joins its meter's
        pending amount."""
        fresh = [(meter, amount, key) for meter, amount, key in draws if key not in self.keys]
        for meter, amount, _key in fresh:
            self.amounts[meter] = self.amounts.get(meter, 0.0) + amount
        self.keys.update(key for _meter, _amount, key in fresh)


@dataclass(frozen=True)
class DpCharge:
    """One recorded release: which statement spent how much."""

    statement: str
    epsilon: float
    delta: float


class PrivacyAccountant:
    """Composes (epsilon, delta) across releases under basic composition.

    Basic sequential composition: k releases at (eps_i, delta_i) are
    jointly (sum eps_i, sum delta_i)-DP.  The accountant keeps one
    :class:`SpendMeter` per dimension, a ledger of charges, and counters
    for releases / free (cached) serves / refusals.
    """

    def __init__(
        self,
        epsilon_budget: float | None = None,
        delta_budget: float | None = None,
    ):
        if epsilon_budget is not None and epsilon_budget < 0.0:
            raise DpError(f"epsilon budget must be >= 0, got {epsilon_budget}")
        if delta_budget is not None and not 0.0 <= delta_budget < 1.0:
            raise DpError(f"delta budget must be in [0, 1), got {delta_budget}")
        self.epsilon = SpendMeter(budget=epsilon_budget, dimension="epsilon")
        self.delta = SpendMeter(budget=delta_budget, dimension="delta")
        self.charges: list[DpCharge] = []
        self.releases = 0
        self.free_serves = 0
        self.refusals = 0

    # -- inspection ----------------------------------------------------------

    @property
    def governs(self) -> bool:
        """True when a finite epsilon or delta budget binds this accountant."""
        return any(
            meter.budget is not None and math.isfinite(meter.budget)
            for meter in (self.epsilon, self.delta)
        )

    def refusal(self, epsilon: float, delta: float) -> BudgetExhausted | None:
        """The refusal an (epsilon, delta) charge earns now: one per meter."""
        return self.epsilon.refusal(epsilon) or self.delta.refusal(delta)

    def draws(self, request: "DpRequest") -> "list[Draw]":
        """What ``request`` draws from this accountant's two meters."""
        return [
            (self.epsilon, request.epsilon, request.key),
            (self.delta, request.delta, request.key),
        ]

    # -- mutation ------------------------------------------------------------

    def charge(self, epsilon: float, delta: float, *, statement: str) -> None:
        """Record one release, refusing (before any mutation) on overshoot."""
        refusal = self.refusal(epsilon, delta)
        if refusal is not None:
            self.refusals += 1
            raise refusal
        self.epsilon.charge(epsilon)
        self.delta.charge(delta)
        self.charges.append(DpCharge(statement=statement, epsilon=epsilon, delta=delta))
        self.releases += 1

    def note_free_serve(self) -> None:
        self.free_serves += 1

    def note_refusal(self) -> None:
        self.refusals += 1


    # -- rendering -----------------------------------------------------------

    def ledger_lines(self) -> list[str]:
        """Deterministic one-line-per-charge rendering (parity pinning)."""
        return [
            f"{c.statement} eps={c.epsilon:.9g} delta={c.delta:.9g}"
            for c in self.charges
        ]

    def snapshot(self) -> dict[str, object]:
        return {
            "epsilon_spent": round(self.epsilon.spent, 9),
            "epsilon_budget": self.epsilon.budget,
            "delta_spent": round(self.delta.spent, 12),
            "delta_budget": self.delta.budget,
            "releases": self.releases,
            "free_serves": self.free_serves,
            "refusals": self.refusals,
        }


# -- mechanisms --------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceMechanism:
    """Additive Laplace(scale) noise: epsilon-DP for sensitivity/scale = epsilon."""

    scale: float
    name: str = "laplace"

    def draw(self, rng: random.Random) -> float:
        # Inverse CDF on a symmetric uniform: u in (-1/2, 1/2).
        u = rng.random() - 0.5
        # Guard the open interval; rng.random() can return 0.0 exactly.
        u = min(max(u, -0.5 + 1e-15), 0.5 - 1e-15)
        return -self.scale * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


@dataclass(frozen=True)
class GeometricMechanism:
    """Two-sided geometric (discrete Laplace) noise with ratio ``alpha``.

    P[X = k] proportional to alpha^|k|; epsilon-DP on integer-valued
    queries when alpha = exp(-epsilon / sensitivity).  Draws are integers,
    so integral-domain releases stay integral.
    """

    alpha: float
    name: str = "geometric"

    def draw(self, rng: random.Random) -> float:
        if self.alpha <= 0.0:
            return 0.0
        p_zero = (1.0 - self.alpha) / (1.0 + self.alpha)
        u = rng.random()
        if u < p_zero:
            return 0.0
        # Split the remaining mass evenly between the two geometric tails.
        sign = 1.0 if (u - p_zero) < (1.0 - p_zero) / 2.0 else -1.0
        v = rng.random()
        v = min(max(v, 1e-15), 1.0 - 1e-15)
        magnitude = 1 + int(math.floor(math.log(1.0 - v) / math.log(self.alpha)))
        return sign * float(max(1, magnitude))


Mechanism = LaplaceMechanism | GeometricMechanism


def sensitivity_for(statement: FederatedStatement, domain: Domain) -> float:
    """Conservative L1 sensitivity of one statement under the declared domain.

    * ``COUNT`` — adding/removing one row moves the count by 1.
    * ``SUM`` — by at most the largest-magnitude domain value.
    * ranking (``TOP``/``MAX``/``BOTTOM``/``MIN``) — each of the k released
      positions can move by at most the domain width, so k * (high - low)
      bounds the L1 shift of the released vector.
    """
    if statement.operation == "COUNT":
        return 1.0
    if statement.operation == "SUM":
        return max(abs(domain.low), abs(domain.high))
    if statement.is_ranking:
        return float(statement.k) * (domain.high - domain.low)
    raise DpError(
        f"no direct sensitivity for {statement.operation}; AVG decomposes to SUM+COUNT"
    )


def calibrate_mechanism(sensitivity: float, epsilon: float, *, integral: bool) -> Mechanism:
    """Pick and calibrate the noise mechanism for one inner release.

    Raises :class:`DpError` when the calibration degenerates to *zero
    noise* (e.g. ``exp(-epsilon/sensitivity)`` underflowing to 0.0 for an
    absurdly large epsilon): releasing the exact value while claiming DP
    would be a silent privacy bug, so it is a typed refusal instead.
    """
    if not (math.isfinite(sensitivity) and sensitivity > 0.0):
        raise DpError(f"sensitivity must be finite and > 0, got {sensitivity}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DpError(f"dp_epsilon must be finite and > 0, got {epsilon}")
    if integral:
        alpha = math.exp(-epsilon / sensitivity)
        if alpha == 0.0:
            raise DpError(
                f"zero-noise refusal: exp(-{epsilon:g}/{sensitivity:g}) underflows; "
                "the geometric mechanism would release the exact value"
            )
        return GeometricMechanism(alpha=alpha)
    scale = sensitivity / epsilon
    if not math.isfinite(scale) or scale == 0.0:
        raise DpError(
            f"zero-noise refusal: Laplace scale {sensitivity:g}/{epsilon:g} degenerates"
        )
    return LaplaceMechanism(scale=scale)


# -- policy and release requests ---------------------------------------------


@dataclass(frozen=True)
class DpPolicy:
    """Federation-level DP configuration.

    ``epsilon_budget`` / ``delta_budget`` bound the accountant (``None``
    means unmetered); ``seed`` isolates the noise stream from the
    protocol's own seed derivation so enabling DP never perturbs
    non-DP draws.  The seed must stay secret: the noise is a public function
    of it and of the exact answer, so anyone who knows it can re-derive the
    noise and subtract it.
    """

    epsilon_budget: float | None = None
    delta_budget: float | None = None
    seed: int = 0


@dataclass(frozen=True)
class DpInner:
    """One inner (exact) statement plus the mechanism perturbing its answer."""

    text: str
    mechanism: Mechanism


@dataclass(frozen=True)
class DpRequest:
    """A fully-resolved DP release: inner statements, budgets, mechanisms.

    ``key`` identifies the release: repeats of the same canonical statement
    at the same budget share it, and with the exact inner answers it keys
    the noise, which is what makes a repeat over equal answers
    byte-identical and free.
    """

    operation: str
    k: int
    smallest: bool
    domain: Domain
    epsilon: float
    delta: float
    inner: tuple[DpInner, ...]
    key: tuple
    label: str

    @property
    def inner_texts(self) -> tuple[str, ...]:
        return tuple(i.text for i in self.inner)


def build_request(spec, domain: Domain | None) -> DpRequest | None:
    """Resolve a parsed :class:`~repro.planner.spec.QuerySpec` into a DP request.

    Returns ``None`` for non-DP specs.  Raises :class:`DpError` when the
    spec requests DP but no domain is declared for the attribute, or the
    mechanism calibration degenerates.
    """
    # Local import: planner.spec imports nothing from privacy, so this
    # direction is cycle-free, but keeping it local mirrors the layering.
    from ..planner.spec import strip_dp

    slo = spec.slo
    if not slo.has_dp:
        return None
    statement = spec.statement
    if domain is None:
        raise DpError(
            f"dp_epsilon requires a declared domain for "
            f"{statement.table}.{statement.attribute}"
        )
    epsilon = float(slo.dp_epsilon)
    delta = float(slo.dp_delta) if slo.dp_delta is not None else 0.0
    inner_text = strip_dp(spec)
    key = (
        statement.operation,
        statement.k,
        statement.attribute,
        statement.table,
        repr(epsilon),
        repr(delta),
    )
    label = (
        f"{statement.operation} k={statement.k} {statement.table}.{statement.attribute} "
        f"dp_epsilon={epsilon:g} dp_delta={delta:g}"
    )
    if statement.operation == "AVG":
        # Decompose like the sharded fan-out: SUM + COUNT at half budget each.
        half = epsilon / 2.0
        sum_text = f"SELECT SUM({statement.attribute}) FROM {statement.table}"
        count_text = f"SELECT COUNT({statement.attribute}) FROM {statement.table}"
        sum_sens = max(abs(domain.low), abs(domain.high))
        inner = (
            DpInner(sum_text, calibrate_mechanism(sum_sens, half, integral=domain.integral)),
            DpInner(count_text, calibrate_mechanism(1.0, half, integral=True)),
        )
    else:
        sens = sensitivity_for(statement, domain)
        integral = domain.integral if statement.operation != "COUNT" else True
        inner = (
            DpInner(inner_text, calibrate_mechanism(sens, epsilon, integral=integral)),
        )
    return DpRequest(
        operation=statement.operation,
        k=statement.k,
        smallest=statement.smallest,
        domain=domain,
        epsilon=epsilon,
        delta=delta,
        inner=inner,
        key=key,
        label=label,
    )


# -- the gate ----------------------------------------------------------------


@dataclass(frozen=True)
class _ReleaseRecord:
    """One key's latest release: the inner answers it perturbed, its bytes.

    ``values`` are what re-deriving the noise from ``inner_values`` would
    give again, kept so a free re-serve does not pay for the derivation.
    """

    inner_values: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]


def _freeze(inner_values: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    # ``+ 0.0`` folds -0.0 into 0.0, so equal answers also key equal noise.
    return tuple(tuple(float(v) + 0.0 for v in values) for values in inner_values)


class DpGate:
    """Per-federation DP release engine.

    Owns the accountant, each key's latest release, and the deterministic
    noise derivation.  Flat and sharded federations drive it through the
    one release path (:mod:`repro.federation.dp_release`), so both share
    ledger and noise byte-for-byte.
    """

    def __init__(self, policy: DpPolicy | None = None):
        self.policy = policy or DpPolicy()
        self.accountant = PrivacyAccountant(
            self.policy.epsilon_budget, self.policy.delta_budget
        )
        self._releases: dict[tuple, _ReleaseRecord] = {}

    # -- release bookkeeping -------------------------------------------------

    def reusable(self, request: DpRequest) -> bool:
        """True when this key has released before.

        Admission optimism only: whether a repeat actually re-serves free is
        decided by :meth:`replayable`, which also checks that the inner
        answers equal the ones the release perturbed.
        """
        return request.key in self._releases

    def replayable(
        self, request: DpRequest, inner_values: Sequence[Sequence[float]]
    ) -> bool:
        """True when the latest release perturbed exactly these inner answers.

        Then :meth:`finalize` re-serves it free: the bytes are the ones the
        noise derivation would give again, and already public.  Any other
        answers key an independent, charged draw.
        """
        record = self._releases.get(request.key)
        return record is not None and record.inner_values == _freeze(inner_values)

    def new_pending(self) -> PendingBudget:
        return PendingBudget()

    def admit(
        self,
        request: DpRequest | None,
        pending: PendingBudget,
        draws: "Sequence[Draw]" = (),
        tenant: PrivacyAccountant | None = None,
    ) -> BudgetExhausted | None:
        """The one admission rule, before any seed draw or inner dispatch.

        In order, ``draws`` (what the statement draws besides DP: a
        tenant's LoP), the gate's and then the ``tenant``'s (epsilon,
        delta) meters must each pass :class:`SpendMeter`'s test on top of
        ``pending``; only then do all of them join it, so admission does not
        depend on how a workload was batched.  A refusal by the gate's own
        meters is counted as the gate's.

        Optimistic on reuse: a release whose key has released before draws
        no DP budget (the repeat is usually a free re-serve); if its inner
        answers turn out to have changed, ``finalize`` still enforces the
        budget and the statement settles as refused.
        """
        own: list[Draw] = []
        theirs: list[Draw] = []
        if request is not None and not self.reusable(request):
            own = self.accountant.draws(request)
            theirs = tenant.draws(request) if tenant is not None else []
        refusal = pending.refusal(draws)
        if refusal is not None:
            return refusal
        refusal = pending.refusal(own)
        if refusal is not None:
            self.accountant.note_refusal()
            return refusal
        refusal = pending.refusal(theirs)
        if refusal is None:
            pending.join([*draws, *own, *theirs])
        return refusal

    def finalize(
        self, request: DpRequest, inner_values: Sequence[Sequence[float]]
    ) -> tuple[tuple[float, ...], bool]:
        """Assemble the noisy release; returns ``(values, charged)``.

        When the inner answers equal the ones the key's latest release
        perturbed, that release's bytes are re-served free.  Otherwise the
        accountant is charged — refusing with :class:`BudgetExhausted` before
        any meter moves — and the noise is derived from these answers.
        """
        frozen = _freeze(inner_values)
        record = self._releases.get(request.key)
        if record is not None and record.inner_values == frozen:
            self.accountant.note_free_serve()
            return record.values, False
        self.accountant.charge(request.epsilon, request.delta, statement=request.label)
        values = self._perturb(request, frozen)
        self._releases[request.key] = _ReleaseRecord(frozen, values)
        return values, True

    # -- noise ---------------------------------------------------------------

    def _noise_rng(
        self, request: DpRequest, inner_index: int, inner_values: tuple
    ) -> random.Random:
        # Every index is keyed on the whole answer tuple, so a change in any
        # inner answer (e.g. AVG's SUM) re-draws every component; ``repr``
        # writes each float exactly.
        material = ":".join(
            [
                str(self.policy.seed),
                "dp",
                *[str(part) for part in request.key],
                str(inner_index),
                repr(inner_values),
            ]
        ).encode()
        seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return random.Random(seed)

    def _perturb(
        self, request: DpRequest, inner_values: tuple[tuple[float, ...], ...]
    ) -> tuple[float, ...]:
        domain = request.domain
        if request.operation == "AVG":
            sum_noise = request.inner[0].mechanism.draw(self._noise_rng(request, 0, inner_values))
            count_noise = request.inner[1].mechanism.draw(self._noise_rng(request, 1, inner_values))
            noisy_sum = inner_values[0][0] + sum_noise
            noisy_count = max(1.0, float(round(inner_values[1][0] + count_noise)))
            return (domain.clamp(noisy_sum / noisy_count),)
        rng = self._noise_rng(request, 0, inner_values)
        mechanism = request.inner[0].mechanism
        if request.operation == "SUM":
            return (float(inner_values[0][0] + mechanism.draw(rng)),)
        if request.operation == "COUNT":
            return (max(0.0, float(round(inner_values[0][0] + mechanism.draw(rng)))),)
        # Ranking: perturb each released position, clamp to the public
        # domain, and re-sort — post-processing keeps the DP guarantee and
        # the output a monotone k-vector.
        noisy = [domain.clamp(v + mechanism.draw(rng)) for v in inner_values[0]]
        noisy.sort(reverse=not request.smallest)
        return tuple(float(v) for v in noisy)

    # -- inspection ----------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        snap = self.accountant.snapshot()
        snap["release_keys"] = len(self._releases)
        return snap


__all__ = [
    "SPEND_TOLERANCE",
    "BudgetExhausted",
    "DpCharge",
    "DpError",
    "DpGate",
    "DpInner",
    "DpPolicy",
    "DpRequest",
    "DpRequired",
    "Draw",
    "GeometricMechanism",
    "LaplaceMechanism",
    "Mechanism",
    "PendingBudget",
    "PrivacyAccountant",
    "SpendMeter",
    "build_request",
    "calibrate_mechanism",
    "sensitivity_for",
]
