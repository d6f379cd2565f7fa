"""The one (epsilon, delta) release path, wrapped around an exact backend.

The ring protocol answers *exact* statements; ``WITH SLO(dp_epsilon=...)``
wraps those answers, and this module is that wrapper for every topology:

1. :meth:`DpReleasePath.expand` — parse, refuse a DP-governed issuer's
   plain statements, run the caller's precheck (a flat federation's resolves
   quorum and schema there), admit DP statements through
   :meth:`~repro.privacy.dp.DpGate.admit`, append their *inner* (exact)
   statements to the batch;
2. the caller runs the expanded batch on its exact backend;
3. :meth:`DpReleasePath.assemble` — settle each DP statement from its inner
   outcomes: free byte-identical re-serve, fresh charged release, or refusal;
   then charge every budget an admitted statement drew from, once it ran.

``expand`` is the one place a statement is admitted and ``assemble`` the one
place a budget is charged, on every deployment and behind the gateway alike:
the gateway refuses nothing on a budget's or a plan's account before its
queue.  :meth:`DpReleasePath.try_cached` is the same free re-serve on the
cache fast path.  A federation supplies only what differs: the precheck, how
an inner statement is peeked in its cache, and (sharded) the tenant's DP
meters.

**The issuer rule.**  An issuer is *DP-governed* when a finite epsilon or
delta budget applies to it: the gate's, which covers every issuer, or its
tenant's.  Its statements without ``dp_epsilon`` are refused with
:class:`~repro.privacy.dp.DpRequired` (:meth:`DpReleasePath.require_dp`), in
``expand`` and on both federations' cache fast path, before anything is
planned, admitted, looked up or charged; an exact answer would otherwise
walk around the budget.  Inner statements are written here, never by the
issuer, so they are never checked.

**Dispatch order** (DESIGN.md 4b): inner statements sit at synthetic
positions past the originals, and under a randomised ``RunConfig`` a backend's
seed draws follow sub-batch order, so every federation runs
:meth:`DpBatch.runs` in batch order — a DP statement's inner statements in
its place.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol

from ..database.query import Domain
from ..observability.trace import TraceContext
from ..planner.plan import QUALITY
from ..planner.spec import PREPARED_ENTRIES, QuerySpec, prepare
from ..privacy.dp import (
    BudgetExhausted,
    DpError,
    DpGate,
    DpRequest,
    DpRequired,
    Draw,
    PrivacyAccountant,
    build_request,
)
from .outcomes import FederationError, QueryOutcome, QueryRefused, SharedOutcomes
from .sql import SqlError

#: What a DP release appends to the protocol name of the answers it perturbed.
DP_SUFFIX = "+dp"


class TenantMeters(Protocol):
    """Per-issuer DP accounting a release must fit beside the gate's.

    :class:`~repro.sharding.router.ShardRouter` has this shape; a federation
    without tenants passes ``None``.
    """

    def dp_accountant(self, issuer: str) -> PrivacyAccountant | None: ...

    def note_refusal(self, issuer: str) -> None: ...


@dataclass
class DpSlot:
    """One admitted DP statement awaiting its inner answers."""

    request: DpRequest
    #: Positions of the inner statements in :attr:`DpBatch.texts`.
    inner: list[int]
    #: The statement without its SLO clause — what the outcome reports.
    bare_text: str
    #: Set by ``assemble`` for a settled release that was fresh (budget
    #: spent).
    charged: bool = False


@dataclass
class DpBatch:
    """A batch expanded around its DP statements.

    ``texts``/``traces``/``results`` are indexed by *position*:
    the original statements first, then every admitted DP statement's inner
    statements at synthetic positions.  The caller fills ``results`` for
    every position in :meth:`runs`; ``assemble`` fills the DP positions.
    """

    issuer: str
    #: How many original statements the batch holds (the rest are inner).
    size: int
    texts: list[str]
    traces: "list[TraceContext | None] | None"
    results: "list[QueryOutcome | QueryRefused | None]"
    #: ``(position, spec, context)`` per statement that passed the precheck
    #: and DP admission, in statement order; ``context`` is whatever the
    #: precheck returned (the statement's plan; on the sharded federation,
    #: with its routing target).
    admitted: "list[tuple[int, QuerySpec, Any]]" = field(default_factory=list)
    #: Per admitted position, the draws its precheck made besides DP (a
    #: tenant's or each party's LoP): ``assemble`` charges them if it ran.
    draws: "dict[int, list[Draw]]" = field(default_factory=dict)
    slots: dict[int, DpSlot] = field(default_factory=dict)
    #: The canonical form of every statement admitted to run so far, a DP
    #: statement's inner ones included: their answers are public by the
    #: turn of any later statement.
    forms: set = field(default_factory=set)

    def runs(self, position: int) -> list[int]:
        """The positions the exact backend runs for one admitted statement."""
        slot = self.slots.get(position)
        return [position] if slot is None else slot.inner

    def add_slot(self, position: int, request: DpRequest, bare_text: str) -> None:
        """Admit one DP statement: append its inner statements to the batch."""
        inner: list[int] = []
        for j, inner_text in enumerate(request.inner_texts):
            inner.append(len(self.texts))
            self.texts.append(inner_text)
            self.results.append(None)
            # The original statement's trace follows its first inner form.
            if self.traces is not None:
                self.traces.append(self.traces[position] if j == 0 else None)
        self.slots[position] = DpSlot(request, inner, bare_text)

    def refuse(self, position: int, error: Exception) -> None:
        """Settle one statement as refused."""
        self.results[position] = QueryRefused(self.texts[position], error)


class DpReleasePath:
    """Expand, admit, assemble and re-serve DP statements for one federation.

    ``domain_for(table, attribute)`` supplies the public domain mechanisms
    calibrate against; ``meters`` is the optional per-tenant DP accounting.
    """

    def __init__(
        self,
        gate: DpGate,
        domain_for: "Callable[[str, str], Domain | None]",
        meters: "TenantMeters | None" = None,
    ) -> None:
        self.gate = gate
        self._domain_for = domain_for
        self._meters = meters
        #: (statement text, attribute domain) -> its resolved request.
        self._requests: "dict[tuple[str, Domain | None], DpRequest]" = {}
        #: Each spelling's last free re-serve, handed out again while unchanged.
        self._served = SharedOutcomes()

    def _request(self, spec: QuerySpec) -> DpRequest:
        """``spec``'s release request: resolved once per (statement, domain).

        ``expand`` and every free re-serve of one statement share it; a
        domain registered later is a new key.  A spec that cannot resolve
        raises its :class:`DpError` each time and is never stored; the memo
        is bounded like the prepared forms it is keyed by.
        """
        statement = spec.statement
        domain = self._domain_for(statement.table, statement.attribute)
        key = (spec.text, domain)
        request = self._requests.get(key)
        if request is None:
            request = build_request(spec, domain)
            assert request is not None  # callers only pass specs carrying DP keys
            if len(self._requests) >= PREPARED_ENTRIES:
                del self._requests[next(iter(self._requests))]
            self._requests[key] = request
        return request

    def _tenant(self, issuer: str) -> PrivacyAccountant | None:
        """``issuer``'s own (epsilon, delta) accountant, if it has one."""
        return self._meters.dp_accountant(issuer) if self._meters is not None else None

    # -- the issuer rule -------------------------------------------------------

    def require_dp(self, spec: QuerySpec, issuer: str) -> None:
        """Raise :class:`DpRequired` for a DP-governed issuer's plain statement.

        Governed means a finite (epsilon, delta) budget applies to
        ``issuer``: the gate's, or its tenant's.  The refusal charges
        nothing; only the tenant's refusal count moves.
        """
        if spec.slo.has_dp:
            return
        meters, tenant = self._meters, self._tenant(issuer)
        if self.gate.accountant.governs or (tenant is not None and tenant.governs):
            if meters is not None:
                meters.note_refusal(issuer)
            raise DpRequired(
                f"issuer {issuer!r} holds a DP budget: {spec.statement.text!r} "
                "needs WITH SLO(dp_epsilon=...)",
                statement=spec.text,
            )

    # -- expand ----------------------------------------------------------------

    def expand(
        self,
        statements: list[str],
        traces: "Sequence[TraceContext | None] | None",
        modes: "Sequence[str] | None",
        *,
        issuer: str,
        precheck: "Callable[[int, QuerySpec, str, set], Any]",
    ) -> DpBatch:
        """Expand DP statements into inner statements around the exact core.

        A DP-governed issuer's statement without ``dp_epsilon`` is refused
        first (:meth:`require_dp`).  ``precheck(position, spec, mode, forms)``
        then runs on every parsed statement, before any budget, with the
        statement's ``modes`` entry (quality by default) and
        :attr:`DpBatch.forms` so far: it returns the statement's dispatch
        context and the draws it makes besides DP (a tenant's or each
        party's LoP, kept in :attr:`DpBatch.draws` for ``assemble`` to
        charge), or the typed exception refusing it — so a statement
        refused there never touches the pending budget.  This is where a
        federation resolves a statement (quorum and schema) and makes its
        plan (:func:`~repro.planner.plan.plan_or_refusal`), so an
        unsatisfiable SLO refuses it before admission; a DP statement's one
        inner statement runs that plan on every path.

        Admission (:meth:`~repro.privacy.dp.DpGate.admit`) then decides
        every budget refusal — LoP, the gate's and the tenant's
        (epsilon, delta) — as one :class:`~repro.privacy.dp.BudgetExhausted`,
        beside the DP-specific ones (a missing domain, a degenerate
        zero-noise mechanism), *here*, before any seed draw or inner
        dispatch, so refused statements perturb nothing downstream (the same
        refusal-parity rule the planner follows).  It is optimistic on DP
        reuse: a key that has already released draws no (epsilon, delta),
        and ``assemble`` still enforces the budget if the inner answers turn
        out to differ from the ones the release perturbed: that is a fresh,
        charged release with its own noise, never a replay.
        """
        if traces is not None and len(traces) != len(statements):
            raise FederationError(
                f"got {len(statements)} statements but {len(traces)} trace contexts"
            )
        if modes is not None and len(modes) != len(statements):
            raise FederationError(
                f"got {len(statements)} statements but {len(modes)} modes"
            )
        modes = modes or [QUALITY] * len(statements)
        batch = DpBatch(
            issuer=issuer,
            size=len(statements),
            texts=list(statements),
            traces=list(traces) if traces is not None else None,
            results=[None] * len(statements),
        )
        pending = self.gate.new_pending()
        meters, tenant = self._meters, self._tenant(issuer)
        for position, text in enumerate(statements):
            try:
                prepared = prepare(text)
                self.require_dp(prepared.spec, issuer)
            except (SqlError, DpRequired) as exc:
                batch.refuse(position, exc)
                continue
            spec = prepared.spec
            checked = precheck(position, spec, modes[position], batch.forms)
            if isinstance(checked, Exception):
                batch.refuse(position, checked)
                continue
            context, draws = checked
            try:
                request = self._request(spec) if prepared.has_dp else None
                refusal = self.gate.admit(request, pending, draws, tenant)
                if refusal is not None:
                    raise refusal
            except (DpError, BudgetExhausted) as exc:
                if meters is not None:
                    meters.note_refusal(issuer)
                batch.refuse(position, exc)
                continue
            if request is not None:
                batch.add_slot(position, request, spec.statement.text)
            runs = batch.runs(position)
            batch.forms.update(prepare(batch.texts[p]).canonical for p in runs)
            batch.admitted.append((position, spec, context))
            batch.draws[position] = draws
        return batch

    # -- assemble --------------------------------------------------------------

    def assemble(self, batch: DpBatch) -> "list[QueryOutcome | QueryRefused]":
        """Settle each admitted DP statement from its inner outcomes, and
        charge every admitted statement that ran what its precheck drew.

        Statements settle in batch order, so gate and tenant charges land in
        exactly the order a sequential session would record them — that is
        what keeps flat and sharded ledgers byte-identical per seed.  One
        charge per *fresh* release; a DP statement whose inner answers are
        the ones its latest release perturbed — cached or re-executed —
        re-serves that release byte-identically and charges nothing, as the
        spelling's one shared outcome while its fields stay the same.

        A statement ran a protocol when any position the backend ran for it
        (:meth:`DpBatch.runs`) holds an outcome that is not ``cached``; only
        then is each meter it drew from (a tenant's or each party's LoP)
        charged its draw — whatever its release then settles as, since the
        ring's successors saw the vectors.  A hit, a refusal and an in-batch
        duplicate charge nothing.
        """
        for position, _spec, _context in batch.admitted:
            ran = any(
                isinstance(result, QueryOutcome) and not result.cached
                for result in (batch.results[p] for p in batch.runs(position))
            )
            slot = batch.slots.get(position)
            if slot is not None:
                self._release(batch, position, slot)
            if ran:
                for meter, amount, _key in batch.draws[position]:
                    meter.charge(amount)
        return batch.results[: batch.size]  # type: ignore[return-value]  # all filled

    def _release(self, batch: DpBatch, position: int, slot: DpSlot) -> None:
        """Settle one DP statement: a free re-serve, a fresh charged release,
        or its refusal."""
        gate, meters, issuer = self.gate, self._meters, batch.issuer
        tenant = self._tenant(issuer)
        request, text = slot.request, batch.texts[position]
        inner = [batch.results[p] for p in slot.inner]
        refused = next((r for r in inner if isinstance(r, QueryRefused)), None)
        if refused is not None:
            batch.results[position] = QueryRefused(text, refused.error)
            return
        outcomes: list[QueryOutcome] = inner  # type: ignore[assignment]
        inner_values = [o.values for o in outcomes]
        try:
            if tenant is not None and not gate.replayable(request, inner_values):
                # Optimistic reuse admissions skipped the tenant's meters;
                # settle them before the gate records the charge.
                refusal = tenant.refusal(request.epsilon, request.delta)
                if refusal is not None:
                    raise refusal
            values, charged = gate.finalize(request, inner_values)
        except BudgetExhausted as exc:
            if meters is not None:
                meters.note_refusal(issuer)
            batch.refuse(position, exc)
            return
        slot.charged = charged
        outcome = QueryOutcome(
            statement=slot.bare_text,
            values=values,
            protocol=f"{outcomes[0].protocol}{DP_SUFFIX}",
            rounds=max(o.rounds for o in outcomes),
            messages=sum(o.messages for o in outcomes),
            cached=not charged,
            simulated_seconds=max(o.simulated_seconds for o in outcomes),
        )
        if not charged:
            outcome = self._served.share(prepare(text).spec.text, outcome)
        batch.results[position] = outcome
        if charged and tenant is not None:
            tenant.charge(request.epsilon, request.delta, statement=request.label)

    # -- free re-serve ---------------------------------------------------------

    def try_cached(
        self,
        spec: QuerySpec,
        peek: "Callable[[str], Any]",
        before_serve: "Callable[[Sequence[str]], None] | None" = None,
    ) -> QueryOutcome | None:
        """Admission fast path for a DP statement: a free re-serve or ``None``.

        ``peek(inner_text)`` looks one inner statement up in the caller's
        cache without executing (``None`` on a miss).  Serves only when a
        release already exists for the key, every inner answer is still
        cache-valid, *and* those answers are the ones the release perturbed
        (answers re-cached over mutated data key fresh noise — replaying the
        old noise would disclose the exact data delta); the re-served values are
        byte-identical to that release and spend zero budget, and a re-serve
        whose fields are unchanged is the spelling's last one, the same object
        (:class:`~repro.federation.outcomes.SharedOutcomes`).  Anything else
        returns ``None`` so the batch path settles the statement as a fresh,
        charged release or as its typed refusal.

        ``peek`` must have no side effect: whatever serving a hit costs —
        the audit entry, the hit counter — belongs in
        ``before_serve(inner_texts)``, which runs only once a re-serve is
        certain.
        """
        try:
            request = self._request(spec)
        except DpError:
            return None
        if not self.gate.reusable(request):
            return None
        answers = []
        for inner_text in request.inner_texts:
            answer = peek(inner_text)
            if answer is None:
                return None
            answers.append(answer)
        inner_values = [a.values for a in answers]
        if not self.gate.replayable(request, inner_values):
            return None  # the data changed under the release; must re-charge
        if before_serve is not None:
            before_serve(request.inner_texts)
        values, _charged = self.gate.finalize(request, inner_values)
        return self._served.share(
            spec.text,
            QueryOutcome(
                statement=spec.statement.text,
                values=values,
                protocol=f"{answers[0].protocol}{DP_SUFFIX}",
                rounds=0,
                messages=0,
                cached=True,
            ),
        )


__all__ = ["DP_SUFFIX", "DpBatch", "DpReleasePath", "DpSlot", "TenantMeters"]
