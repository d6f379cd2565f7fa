"""The gateway's interleavings, explored by seed.

:class:`ShuffledLoop` is an event loop that runs its ready callbacks in a
seeded random order at every step, so each seed runs the gateway's clients,
its scheduler and the futures between them in another order, and the same
seed in the same one.  Over seeds 0-19, four to six clients each submit two
or three statements drawn from a pool: plain ``TOP k`` statements, their
``WITH SLO(max_rounds=1)`` twins that no plan meets, and DP releases under a
finite epsilon budget.  Whatever the schedule:

* every submission settles exactly once, and its client gets what the
  backend settled;
* the gateway's counters partition ``submitted``;
* the served answers and refusals equal a sequential ``execute`` replay,
  in the order the backend settled them, on a fresh deployment from the
  same seeds, which audits the same issuers in the same order;
* the epsilon spent is the sum of the charged releases, within the budget.

``ShuffledLoop`` reorders ``_ready`` and overrides ``_run_once``, private
state of CPython's ``asyncio.BaseEventLoop`` (as of Python 3.11).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro.federation import QueryOutcome, QueryRefused
from repro.privacy.dp import DpPolicy
from repro.service import QueryService
from repro.sharding import TenantPolicy, build_topology, sharded_federation
from repro.sharding.topology import single_federation

EPSILON = 0.5
BUDGET = 1.0
#: The issuer of every DP release; everything else is anonymous.
DP_ISSUER = "dp"
POOL = [
    *(f"SELECT TOP {k} value FROM t00" for k in (1, 2, 3)),
    *(f"SELECT TOP {k} value FROM t00 WITH SLO(max_rounds=1)" for k in (1, 2, 3)),
    *(f"SELECT TOP {k} value FROM t00 WITH SLO(dp_epsilon={EPSILON})" for k in (1, 2)),
    f"SELECT SUM(value) FROM t00 WITH SLO(dp_epsilon={EPSILON})",
]
#: Where the epsilon budget sits: nowhere (flat, so plain statements are
#: served), on the flat gate (which governs every issuer, so plain
#: statements are refused ``DpRequired``), or on the DP issuer's tenant.
DEPLOYMENTS = ["flat", "flat-governed", "local"]


class ShuffledLoop(asyncio.SelectorEventLoop):
    """An event loop that shuffles its ready queue before every step."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._shuffler = random.Random(seed)

    def _run_once(self) -> None:
        ready = list(self._ready)
        self._shuffler.shuffle(ready)
        self._ready.clear()
        self._ready.extend(ready)
        super()._run_once()


class RecordingBackend:
    """A backend that records, in order, every statement it settles."""

    def __init__(self, backend) -> None:
        self.backend = backend
        #: ``(issuer, statement, outcome or refusal)`` per settled statement.
        self.settled: list[tuple[str, str, object]] = []

    def __getattr__(self, name: str):
        return getattr(self.backend, name)

    def try_cached(self, statement_text: str, *, issuer: str = "anonymous"):
        try:
            hit = self.backend.try_cached(statement_text, issuer=issuer)
        except Exception as refusal:
            self.settled.append((issuer, statement_text, refusal))
            raise
        if hit is not None:
            self.settled.append((issuer, statement_text, hit))
        return hit

    def execute_many_settled(self, statements, *, issuer="anonymous", **kwargs):
        statements = list(statements)
        results = self.backend.execute_many_settled(statements, issuer=issuer, **kwargs)
        self.settled += [
            (issuer, text, r.error if isinstance(r, QueryRefused) else r)
            for text, r in zip(statements, results)
        ]
        return results


def _deploy(kind: str):
    topology = build_topology(
        shards=1, parties_per_shard=4, tables=1, rows_per_table=12, seed=5
    )
    if kind == "local":
        federation = sharded_federation(topology, dp=DpPolicy(seed=2))
        federation.set_tenant(DP_ISSUER, TenantPolicy(dp_epsilon_budget=BUDGET))
        return federation
    budget = BUDGET if kind == "flat-governed" else None
    return single_federation(topology, dp=DpPolicy(epsilon_budget=budget, seed=2))


def _audit(federation) -> list[tuple]:
    shards = getattr(federation, "shards", None)
    audit = shards[0].federation.audit if shards else federation.audit
    return [dataclasses.astuple(entry)[1:] for entry in audit]  # no entry_id


def _issuer(text: str) -> str:
    return DP_ISSUER if "dp_epsilon" in text else "anonymous"


def _scripts(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        [rng.choice(POOL) for _ in range(rng.randint(2, 3))]
        for _ in range(rng.randint(4, 6))
    ]


def _serve(kind: str, scripts: list[list[str]], loop_seed: int):
    """Every client's script through one gateway on a shuffled loop; the
    recording backend, the service and each submission's result."""
    backend = RecordingBackend(_deploy(kind))
    results: list[tuple[str, object]] = []

    async def client(service: QueryService, script: list[str]) -> None:
        for text in script:
            try:
                results.append((text, await service.submit(text, issuer=_issuer(text))))
            except Exception as exc:  # noqa: BLE001 — every way out is checked
                results.append((text, exc))

    async def scenario() -> QueryService:
        async with QueryService(backend) as service:
            await asyncio.gather(*(client(service, script) for script in scripts))
        return service

    loop = ShuffledLoop(loop_seed)
    try:
        service = loop.run_until_complete(scenario())
    finally:
        loop.close()
    return backend, service, results


def _view(result) -> tuple:
    if isinstance(result, QueryOutcome):
        return ("served", result)
    return ("refused", type(result).__name__, str(result))


@pytest.mark.parametrize("kind", DEPLOYMENTS)
@pytest.mark.parametrize("seed", range(20))
def test_every_schedule_settles_as_a_sequential_replay(kind, seed):
    scripts = _scripts(seed)
    backend, service, results = _serve(kind, scripts, loop_seed=seed)
    submitted = sum(len(script) for script in scripts)

    # Each submission settled once, and its client got that very object.
    assert len(results) == len(backend.settled) == submitted
    mine = sorted((text, id(result)) for text, result in results)
    assert mine == sorted((text, id(result)) for _, text, result in backend.settled)

    metrics = service.metrics
    assert metrics.submitted == submitted == (
        metrics.completed
        + metrics.refused
        + metrics.failed
        + metrics.shed
        + metrics.plan_infeasible
    )
    assert metrics.completed == sum(isinstance(r, QueryOutcome) for _, r in results)

    replay = _deploy(kind)
    for issuer, text, result in backend.settled:
        try:
            replayed = replay.execute(text, issuer=issuer)
        except Exception as exc:  # noqa: BLE001 — compared with the settled one
            replayed = exc
        assert _view(replayed) == _view(result), text
    # One audit entry per served statement, by the same issuers in the same
    # order.  (The flat fast path audits a DP re-serve as the release, the
    # batch path as its cached inner answer, so the entries themselves may
    # differ.)
    issuers = [entry[0] for entry in _audit(replay)]
    assert issuers == [entry[0] for entry in _audit(backend.backend)]

    charged = sum(
        EPSILON
        for _, _, result in backend.settled
        if isinstance(result, QueryOutcome)
        and result.protocol.endswith("+dp")
        and not result.cached
    )
    accountants = [backend.dp_gate.accountant]
    if kind == "local":
        accountants.append(backend.router.dp_accountant(DP_ISSUER))
    for accountant in accountants:
        assert accountant.epsilon.spent == pytest.approx(charged)
        assert sum(c.epsilon for c in accountant.charges) == pytest.approx(charged)
    if kind != "flat":
        assert charged <= BUDGET


def test_the_loop_seed_alone_moves_the_schedule():
    # One set of client scripts: each loop seed is one schedule, the same
    # every time it runs, and different seeds reach different ones.
    scripts = _scripts(0)

    def order(loop_seed: int) -> list[tuple]:
        backend, _, _ = _serve("flat", scripts, loop_seed)
        return [(text, _view(result)) for _, text, result in backend.settled]

    assert order(3) == order(3)
    assert len({tuple(map(repr, order(s))) for s in range(8)}) > 1
