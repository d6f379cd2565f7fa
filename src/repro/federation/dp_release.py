"""The one (epsilon, delta) release path, wrapped around an exact backend.

The ring protocol answers *exact* statements; ``WITH SLO(dp_epsilon=...)``
wraps those answers, and this module is that wrapper for every topology:

1. :meth:`DpReleasePath.expand` — parse, refuse a DP-governed issuer's
   plain statements, run the caller's precheck, admit DP statements through
   :meth:`~repro.privacy.dp.DpGate.admit`, append their *inner* (exact)
   statements to the batch;
2. the caller runs the expanded batch on its exact backend;
3. :meth:`DpReleasePath.assemble` — settle each DP statement from its inner
   outcomes: free byte-identical re-serve, fresh charged release, or refusal.

:meth:`DpReleasePath.try_cached` is the same free re-serve on the cache fast
path, :meth:`DpReleasePath.admission_check` the gateway's refusal before the
queue.  A federation supplies only what differs: the precheck, how an inner
statement is peeked in its cache, and (sharded) the tenant's DP meters.

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
from functools import partial
from typing import Any, Protocol

from ..database.query import Domain
from ..observability.trace import TraceContext
from ..planner.errors import PlanInfeasible
from ..planner.plan import Plan
from ..planner.spec import PREPARED_ENTRIES, QuerySpec, prepare
from ..privacy.dp import (
    BudgetExhausted,
    DpError,
    DpGate,
    DpRequest,
    DpRequired,
    build_request,
)
from .outcomes import FederationError, QueryOutcome, QueryRefused
from .sql import SqlError


class TenantMeters(Protocol):
    """Per-issuer DP meters a release must fit beside the gate's accountant.

    :class:`~repro.sharding.router.ShardRouter` has this shape; a federation
    without tenants passes ``None``.
    """

    def dp_headroom(
        self,
        issuer: str,
        epsilon: float,
        delta: float,
        *,
        pending_epsilon: float = 0.0,
        pending_delta: float = 0.0,
    ) -> str | None: ...

    def charge_dp(
        self, issuer: str, epsilon: float, delta: float, *, statement: str
    ) -> None: ...

    def note_refusal(self, issuer: str) -> None: ...

    def dp_governed(self, issuer: str) -> bool: ...


@dataclass
class DpSlot:
    """One admitted DP statement awaiting its inner answers."""

    request: DpRequest
    #: Positions of the inner statements in :attr:`DpBatch.texts`.
    inner: list[int]
    #: The statement without its SLO clause — what the outcome reports.
    bare_text: str
    #: Set by ``assemble``: the release was fresh (budget spent), and an inner
    #: statement actually ran a protocol (LoP exposure happened; cached inner
    #: answers expose nothing).
    charged: bool = False
    executed: bool = False


@dataclass
class DpBatch:
    """A batch expanded around its DP statements.

    ``texts``/``traces``/``plans``/``results`` are indexed by *position*:
    the original statements first, then every admitted DP statement's inner
    statements at synthetic positions.  The caller fills ``results`` for
    every position in :meth:`runs`; ``assemble`` fills the DP positions.
    """

    issuer: str
    settle: bool
    #: How many original statements the batch holds (the rest are inner).
    size: int
    texts: list[str]
    traces: "list[TraceContext | None] | None"
    plans: "list[Plan | None]"
    results: "list[QueryOutcome | QueryRefused | None]"
    #: ``(position, spec, context)`` per statement that passed the precheck
    #: and DP admission, in statement order; ``context`` is whatever the
    #: precheck returned (the sharded federation's routing target).
    admitted: "list[tuple[int, QuerySpec, Any]]" = field(default_factory=list)
    slots: dict[int, DpSlot] = field(default_factory=dict)

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
            # The original statement's trace follows its first inner form;
            # its plan follows a single inner form (not a decomposition).
            if self.traces is not None:
                self.traces.append(self.traces[position] if j == 0 else None)
            single = j == 0 and len(request.inner) == 1
            self.plans.append(self.plans[position] if single else None)
        self.slots[position] = DpSlot(request, inner, bare_text)

    def refuse(self, position: int, error: Exception) -> None:
        """Settle one statement as refused — or abort a raising batch."""
        if not self.settle:
            raise error
        self.results[position] = QueryRefused(self.texts[position], error)


class DpReleasePath:
    """Expand, admit, assemble and re-serve DP statements for one federation.

    ``domain_for(table, attribute)`` supplies the public domain mechanisms
    calibrate against; ``plan(spec)`` is the federation's plan for a
    statement; ``meters`` is the optional per-tenant DP accounting.
    """

    def __init__(
        self,
        gate: DpGate,
        domain_for: "Callable[[str, str], Domain | None]",
        plan: "Callable[[QuerySpec], Plan]",
        meters: "TenantMeters | None" = None,
    ) -> None:
        self.gate = gate
        self._domain_for = domain_for
        self._plan = plan
        self._meters = meters
        #: (statement text, attribute domain) -> its resolved request.
        self._requests: "dict[tuple[str, Domain | None], DpRequest]" = {}

    def _request(self, spec: QuerySpec) -> DpRequest:
        """``spec``'s release request: resolved once per (statement, domain).

        The admission check, ``expand`` and every free re-serve of one
        statement share it; a domain registered later is a new key.  A spec
        that cannot resolve raises its :class:`DpError` each time and is never
        stored; the memo is bounded like the prepared forms it is keyed by.
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

    # -- the issuer rule -------------------------------------------------------

    def require_dp(self, spec: QuerySpec, issuer: str) -> None:
        """Raise :class:`DpRequired` for a DP-governed issuer's plain statement.

        Governed means a finite (epsilon, delta) budget applies to
        ``issuer``: the gate's, or its tenant's.  The refusal charges
        nothing; only the tenant's refusal count moves.
        """
        if spec.slo.has_dp:
            return
        meters = self._meters
        if self.gate.accountant.governs or (
            meters is not None and meters.dp_governed(issuer)
        ):
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
        plans: "Sequence[Plan | None] | None",
        *,
        issuer: str,
        settle: bool,
        precheck: "Callable[[int, QuerySpec], Any] | None" = None,
    ) -> DpBatch:
        """Expand DP statements into inner statements around the exact core.

        A DP-governed issuer's statement without ``dp_epsilon`` is refused
        first (:meth:`require_dp`).  ``precheck(position, spec)`` then runs
        on every parsed statement, before anything DP: it returns the
        statement's dispatch context, or the typed exception refusing it —
        so a statement refused there never touches the pending budget.
        Without a precheck every context is ``None``.

        DP-specific refusals — a missing domain, a degenerate (zero-noise)
        mechanism, an exhausted (epsilon, delta) budget — are decided
        *here*, before any seed draw or inner dispatch, so refused DP
        statements perturb nothing downstream (the same refusal-parity rule
        the planner follows).  A DP statement with one inner statement runs
        that statement on its own plan, the caller's or else ``plan(spec)``'s
        — on every path, so a statement planned at admission and the same
        statement executed alone run the same protocol; an unsatisfiable SLO
        refuses it here.  The budget precheck is optimistic on reuse:
        a key that has already released is admitted without headroom, and
        ``assemble`` still enforces the budget if the inner answers turn out
        to differ from the ones the release perturbed: that is a fresh,
        charged release with its own noise, never a replay.

        With ``settle=False`` the first refusal raises instead.
        """
        if traces is not None and len(traces) != len(statements):
            raise FederationError(
                f"got {len(statements)} statements but {len(traces)} trace contexts"
            )
        if plans is not None and len(plans) != len(statements):
            raise FederationError(
                f"got {len(statements)} statements but {len(plans)} plans"
            )
        batch = DpBatch(
            issuer=issuer,
            settle=settle,
            size=len(statements),
            texts=list(statements),
            traces=list(traces) if traces is not None else None,
            plans=list(plans) if plans is not None else [None] * len(statements),
            results=[None] * len(statements),
        )
        pending = self.gate.new_pending()
        meters = self._meters
        headroom = partial(meters.dp_headroom, issuer) if meters is not None else None
        for position, text in enumerate(statements):
            try:
                prepared = prepare(text)
                self.require_dp(prepared.spec, issuer)
            except (SqlError, DpRequired) as exc:
                batch.refuse(position, exc)
                continue
            spec = prepared.spec
            context = precheck(position, spec) if precheck is not None else None
            if isinstance(context, Exception):
                batch.refuse(position, context)
                continue
            if prepared.has_dp:
                try:
                    request = self._request(spec)
                    if len(request.inner) == 1 and batch.plans[position] is None:
                        batch.plans[position] = self._plan(spec)
                    reason = self.gate.admit(request, pending, headroom)
                    if reason is not None:
                        raise BudgetExhausted(reason, statement=text)
                except PlanInfeasible as exc:
                    batch.refuse(position, exc)
                    continue
                except DpError as exc:
                    if meters is not None:
                        meters.note_refusal(issuer)
                    batch.refuse(position, exc)
                    continue
                batch.add_slot(position, request, spec.statement.text)
            batch.admitted.append((position, spec, context))
        return batch

    # -- assemble --------------------------------------------------------------

    def assemble(self, batch: DpBatch) -> "list[QueryOutcome | QueryRefused]":
        """Settle each admitted DP statement from its inner outcomes.

        Statements settle in batch order, so gate and tenant charges land in
        exactly the order a sequential session would record them — that is
        what keeps flat and sharded ledgers byte-identical per seed.  One
        charge per *fresh* release; a DP statement whose inner answers are
        the ones its latest release perturbed — cached or re-executed —
        re-serves that release byte-identically and charges nothing.
        """
        gate, meters, issuer = self.gate, self._meters, batch.issuer
        for position, slot in batch.slots.items():
            request, text = slot.request, batch.texts[position]
            inner = [batch.results[p] for p in slot.inner]
            refused = next((r for r in inner if isinstance(r, QueryRefused)), None)
            if refused is not None:
                batch.results[position] = QueryRefused(text, refused.error)
                continue
            outcomes: list[QueryOutcome] = inner  # type: ignore[assignment]
            inner_values = [o.values for o in outcomes]
            try:
                if meters is not None and not gate.replayable(request, inner_values):
                    # Optimistic reuse admissions skipped the tenant headroom
                    # check; settle it before the gate records the charge.
                    reason = meters.dp_headroom(issuer, request.epsilon, request.delta)
                    if reason is not None:
                        raise BudgetExhausted(reason, statement=text)
                values, charged = gate.finalize(request, inner_values)
            except BudgetExhausted as exc:
                if meters is not None:
                    meters.note_refusal(issuer)
                batch.refuse(position, exc)
                continue
            slot.charged = charged
            slot.executed = not all(o.cached for o in outcomes)
            batch.results[position] = QueryOutcome(
                statement=slot.bare_text,
                values=values,
                protocol=f"{outcomes[0].protocol}+dp",
                rounds=max(o.rounds for o in outcomes),
                messages=sum(o.messages for o in outcomes),
                cached=not charged,
                simulated_seconds=max(o.simulated_seconds for o in outcomes),
            )
            if charged and meters is not None:
                meters.charge_dp(
                    issuer, request.epsilon, request.delta, statement=request.label
                )
        return batch.results[: batch.size]  # type: ignore[return-value]  # all filled

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
        byte-identical to that release and spend zero budget.  Anything else
        returns ``None`` so the batch path settles the statement as a fresh,
        charged release or raises its typed refusal.

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
        return QueryOutcome(
            statement=spec.statement.text,
            values=values,
            protocol=f"{answers[0].protocol}+dp",
            rounds=0,
            messages=0,
            cached=True,
        )

    # -- gateway admission -----------------------------------------------------

    def admission_check(self, spec: QuerySpec, *, issuer: str) -> None:
        """Refuse a DP statement that can neither reuse a release nor pay.

        Raises :class:`~repro.privacy.dp.DpError` for unresolvable requests
        (missing domain, zero-noise calibration) and
        :class:`~repro.privacy.dp.BudgetExhausted` when no release exists
        and the gate's — or the tenant's — budget has no headroom, so the
        refusal happens before the statement consumes a queue slot.
        """
        if not spec.slo.has_dp:
            return
        request = self._request(spec)
        if self.gate.reusable(request):
            return
        reason = self.gate.accountant.headroom_reason(request.epsilon, request.delta)
        if reason is not None:
            self.gate.accountant.note_refusal()
            raise BudgetExhausted(reason, statement=spec.text)
        if self._meters is not None:
            reason = self._meters.dp_headroom(issuer, request.epsilon, request.delta)
            if reason is not None:
                self._meters.note_refusal(issuer)
                raise BudgetExhausted(reason, statement=spec.text)


__all__ = ["DpBatch", "DpReleasePath", "DpSlot", "TenantMeters"]
