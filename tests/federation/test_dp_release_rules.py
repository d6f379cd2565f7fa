"""The DP release rules, each stated once and run on both topologies.

The release path is one module (:mod:`repro.federation.dp_release`) under a
flat and a sharded federation; a privacy rule it enforces is therefore one
test here, parameterised over a ``backend`` — so the next fix of the
subtraction-attack class lands with one test that runs twice.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.database.database import PrivateDatabase, database_from_values
from repro.database.query import PAPER_DOMAIN, Domain
from repro.federation import Federation, SqlError, dp_release
from repro.federation.coordinator import QueryRefused
from repro.privacy import dp
from repro.planner.errors import PlanInfeasible
from repro.privacy.dp import BudgetExhausted, DpError, DpPolicy, DpRequired
from repro.service import QueryService
from repro.sharding import TenantPolicy, build_topology, sharded_federation
from repro.sharding.topology import single_federation

from ..conftest import counting_compiles

DATASETS = {
    "acme": [100, 900, 250],
    "bravo": [9000, 40],
    "corex": [7000, 6500, 3],
    "delta": [5],
}


@dataclass
class Backend:
    """A federation, a table it serves, and one party holding that table."""

    federation: object
    table: str
    party: PrivateDatabase

    @property
    def accountant(self):
        return self.federation.dp_gate.accountant

    @property
    def flat_federations(self) -> list:
        """The exact federations underneath: itself, or one per shard."""
        shards = getattr(self.federation, "shards", None)
        if shards is None:
            return [self.federation]
        return [shard.federation for shard in shards]

    def mutate_then_recache(self, text: str) -> None:
        """Change the table, then re-cache ``text``'s exact answer by serving
        it: a plain query, or (under a budget) a DP one of the same inner."""
        self.party.insert(self.table, {"value": 123})
        (served,) = self.federation.execute_many_settled([text])
        assert not isinstance(served, QueryRefused), served


def _flat(dp: DpPolicy) -> Backend:
    federation = Federation(domain=PAPER_DOMAIN, seed=7, dp=dp)
    parties = {
        owner: database_from_values(owner, values)
        for owner, values in DATASETS.items()
    }
    for database in parties.values():
        federation.register(database)
    return Backend(federation, "data", parties["acme"])


def _sharded_local(dp: DpPolicy) -> Backend:
    topology = build_topology(shards=3, seed=7)
    federation = sharded_federation(topology, dp=dp)
    table = next(t for t in topology.tables if t not in topology.partitioned)
    owner = federation.shards[federation.router.route(table)].federation
    return Backend(federation, table, next(iter(owner._parties.values())))


@pytest.fixture(params=[_flat, _sharded_local], ids=["flat", "sharded-local"])
def backend(request):
    """``backend(dp_policy)`` builds the federation under test."""
    return request.param


def test_repeat_is_free_and_byte_identical(backend):
    b = backend(DpPolicy(seed=2))
    text = f"SELECT MAX(value) FROM {b.table} WITH SLO(dp_epsilon=1.5)"
    first = b.federation.execute(text)
    spent = b.accountant.epsilon.spent
    again = b.federation.execute(text)
    assert again.values == first.values
    assert again.cached and again.rounds == 0 and again.messages == 0
    assert b.accountant.epsilon.spent == spent
    assert b.accountant.free_serves == 1


def test_try_cached_reserves_and_never_charges(backend):
    b = backend(DpPolicy(seed=2))
    text = f"SELECT SUM(value) FROM {b.table} WITH SLO(dp_epsilon=1.0)"
    assert b.federation.try_cached(text) is None  # no release yet
    assert b.accountant.releases == 0
    first = b.federation.execute(text)
    hit = b.federation.try_cached(text)
    assert hit is not None and hit.cached
    assert hit.values == first.values
    assert b.accountant.releases == 1
    assert b.accountant.epsilon.spent == 1.0


def test_recached_mutated_data_is_a_fresh_release(backend):
    # The uncharged-disclosure regression: release a DP COUNT, mutate a
    # party's table, then re-cache the exact inner answer at the new data
    # version via a plain (non-DP) query of the same inner text.  The DP
    # repeat's inner is now cache-valid, but over *different* data — serving
    # it as a free replay of the old noise would let an observer subtract the
    # two releases and learn the exact row delta with zero epsilon charged.
    # It must settle as a fresh release.
    b = backend(DpPolicy(seed=2))
    inner = f"SELECT COUNT(value) FROM {b.table}"
    text = f"{inner} WITH SLO(dp_epsilon=0.5)"
    first = b.federation.execute(text)
    assert b.accountant.releases == 1

    b.mutate_then_recache(inner)
    # The admission fast path declines: no free serve over changed data.
    assert b.federation.try_cached(text) is None
    second = b.federation.execute(text)
    assert not second.cached
    assert b.accountant.releases == 2
    assert b.accountant.epsilon.spent == pytest.approx(1.0)
    assert b.accountant.free_serves == 0
    # Fresh noise: the release difference does not equal the row delta.
    assert second.values[0] - first.values[0] != 1.0


#: A continuous public domain, so SUM and AVG's sum draw Laplace noise.
CONTINUOUS = Domain(1, 10_000, integral=False)
SHIFT = 5


def _disclosures(operation: str, first: float, count: int) -> list[float]:
    """What the shifted twin releases if it reuses ``first``'s noise draw.

    The twin holds one extra row of value :data:`SHIFT`: a SUM moves by
    SHIFT, a COUNT by 1, and an AVG ``(sum + noise) / noisy_count`` becomes
    ``(first * noisy_count + SHIFT) / (noisy_count + 1)`` for the noisy count
    the release drew, which an observer can try over every plausible count.
    """
    if operation == "SUM":
        return [first + SHIFT]
    if operation == "COUNT":
        return [first + 1.0]
    return [(first * c + SHIFT) / (c + 1) for c in range(1, 2 * count + 2)]


@pytest.mark.parametrize(
    "operation, epsilon", [("SUM", 0.1), ("COUNT", 0.5), ("AVG", 4.0)]
)
def test_a_restart_discloses_no_data_delta(backend, operation, epsilon):
    # The restart probe: two federations built from the same seeds, the
    # second over data with one extra row.  Each releases the statement once,
    # as a restarted gateway would.  Noise keyed by process state (such as a
    # count of releases) restarts with the process: both would draw the same
    # noise, and the releases would differ by exactly the data delta.  Keyed
    # by the answer it perturbs, the shifted data draws independent noise...
    def build(shifted: bool) -> Backend:
        b = backend(DpPolicy(seed=1))
        b.federation.register_domain(b.table, "value", CONTINUOUS)
        if shifted:
            b.party.insert(b.table, {"value": SHIFT})
        return b

    base, shifted = build(False), build(True)
    text = f"SELECT {operation}(value) FROM {base.table} WITH SLO(dp_epsilon={epsilon})"
    (first,) = base.federation.execute(text).values
    (second,) = shifted.federation.execute(text).values
    count = base.federation.execute(f"SELECT COUNT(value) FROM {base.table}").values[0]
    for disclosed in _disclosures(operation, first, int(count)):
        assert second != pytest.approx(disclosed, rel=1e-9, abs=1e-9)

    # ...while a twin over unchanged data re-derives the same bytes: a
    # refunded budget buys no fresh sample to average.
    twin = build(False)
    again = twin.federation.execute(text)
    assert again.values == (first,) and not again.cached
    assert twin.federation.execute(text).values == (first,)
    assert twin.accountant.releases == 1
    assert twin.accountant.free_serves == 1
    assert twin.accountant.epsilon.spent == pytest.approx(epsilon)


def test_exhausted_budget_refuses_not_leaks(backend):
    b = backend(DpPolicy(epsilon_budget=0.75, seed=2))
    inner = f"SELECT COUNT(value) FROM {b.table}"
    text = f"{inner} WITH SLO(dp_epsilon=0.5)"
    first = b.federation.execute(text)
    repeat = b.federation.execute(text)  # unchanged data: free byte-identical
    assert repeat.cached and repeat.values == first.values

    # The budgeted issuer may not re-cache the inner answer by a plain
    # query; a DP release of the same inner does, and spends the rest.
    b.mutate_then_recache(f"{inner} WITH SLO(dp_epsilon=0.25)")
    assert b.federation.try_cached(text) is None
    with pytest.raises(BudgetExhausted):
        b.federation.execute(text)
    settled = b.federation.execute_many_settled([text])
    assert isinstance(settled[0], QueryRefused)
    assert isinstance(settled[0].error, BudgetExhausted)
    assert b.accountant.releases == 2


def test_try_cached_raises_on_malformed(backend):
    # One contract on both topologies: a malformed statement is an error the
    # caller sees, not a cache miss (the gateway parses first either way).
    b = backend(DpPolicy(seed=2))
    with pytest.raises(SqlError):
        b.federation.try_cached("SELECT FROM nowhere")
    with pytest.raises(SqlError):
        b.federation.try_cached(f"SELECT MAX(value) FROM {b.table} WITH SLO(dp_epsilon=)")


@pytest.mark.parametrize(
    "refused, error, budget",
    [
        ("SELECT NOPE", SqlError, 4.0),
        ("SELECT TOP 2 value FROM {table}", DpRequired, 4.0),
        (
            "SELECT TOP 2 value FROM {table} WITH SLO(dp_epsilon=1.0, deadline=0.004)",
            PlanInfeasible,
            4.0,
        ),
        ("SELECT MAX(value) FROM {table} WITH SLO(dp_epsilon=9.0)", BudgetExhausted, 4.0),
        ("SELECT COUNT(value) FROM {table} WITH SLO(dp_epsilon=800.0)", DpError, 900.0),
    ],
    ids=["malformed", "dp-required", "plan-infeasible", "dp-admission", "dp-zero-noise"],
)
def test_a_refused_statement_spends_nothing(backend, refused, error, budget):
    # ``execute`` raises what its batch of one settled.  A statement the
    # federation itself refuses runs nothing: no audit entry, no ledger or
    # tenant charge, no release, nothing cached on any shard.
    b = backend(DpPolicy(epsilon_budget=budget, seed=2))
    if hasattr(b.federation, "set_tenant"):
        b.federation.set_tenant(
            "t1", TenantPolicy(lop_budget=5.0, dp_epsilon_budget=budget)
        )
    with pytest.raises(error):
        b.federation.execute(refused.format(table=b.table), issuer="t1")
    for federation in b.flat_federations:
        assert len(federation.audit) == 0 and len(federation.cache) == 0
        assert federation.ledger.meters == {}
    assert b.accountant.releases == 0 and b.accountant.epsilon.spent == 0.0
    if hasattr(b.federation, "set_tenant"):
        account = b.federation.router.tenant_snapshot()["t1"]
        assert account["lop_spent"] == 0.0 and account["dp_epsilon_spent"] == 0.0


def test_a_statement_compiles_once_and_repeats_compile_nothing(backend, monkeypatch):
    # Counted, not timed: gateway -> admission try_cached -> dequeue
    # try_cached -> batch -> DP expand / inner peek -> shard route and
    # fan-out all consume the one prepared form of a text (the parent
    # compiled each statement 2-5 times along this path).
    b = backend(DpPolicy(seed=2))
    t = b.table
    ranking = f"SELECT TOP 2 value FROM {t}"
    additive = f"SELECT SUM(value) FROM {t}"
    slo = f"SELECT MAX(value) FROM {t} WITH SLO(max_lop=0.9)"
    dp_inner = f"SELECT COUNT(value) FROM {t}"
    dp_text = f"{dp_inner} WITH SLO(dp_epsilon=0.5)"
    router = getattr(b.federation, "router", None)
    if router is None:
        avg, avg_parts = f"SELECT AVG(value) FROM {t}", []
    else:  # a fan-out: AVG recombines from every shard's SUM and COUNT
        (part,) = router.partitioned_tables
        avg = f"SELECT AVG(value) FROM {part}"
        avg_parts = [
            f"SELECT SUM(value) FROM {part}",
            f"SELECT COUNT(value) FROM {part}",
        ]
    submitted = [ranking, additive, slo, dp_text, avg]

    built: list[str] = []
    calibrated: list[float] = []
    build_request, calibrate = dp_release.build_request, dp.calibrate_mechanism
    monkeypatch.setattr(
        dp_release,
        "build_request",
        lambda spec, domain: built.append(spec.text) or build_request(spec, domain),
    )
    monkeypatch.setattr(
        dp,
        "calibrate_mechanism",
        lambda sensitivity, epsilon, **kwargs: calibrated.append(epsilon)
        or calibrate(sensitivity, epsilon, **kwargs),
    )

    async def scenario(compiled, parsed):
        # ``max_batch=1``: of two queued copies the second is answered by the
        # dequeue-time sweep of the next cycle.
        async with QueryService(b.federation, max_batch=1) as service:
            for text in submitted:
                await service.submit(text)
            first_sight = {*submitted, dp_inner, *avg_parts}
            assert dict(compiled) == dict.fromkeys(first_sight, 1)
            assert sum(parsed.values()) == len(first_sight)
            assert built == [dp_text] and calibrated == [0.5]

            compiled.clear()
            hits = [await service.submit(text) for text in submitted]
            assert all(hit.cached for hit in hits)  # incl. the DP free re-serve
            for federation in b.flat_federations:
                federation.cache.clear()
            again = await service.submit_many([ranking, ranking, dp_text])
            # The DP inner re-executes over unchanged data: same answer, so
            # the same release, re-served free.
            assert [o.cached for o in again] == [False, True, True]
            assert service.metrics.cache_fast_hits == len(submitted) + 1
            assert not compiled and built == [dp_text]

            # A new public domain for the attribute is a new request.
            b.federation.register_domain(t, "value", Domain(1, 20_000))
            await service.submit(dp_text)
            assert not compiled
            assert built == [dp_text] * 2 and calibrated == [0.5] * 2

    with counting_compiles() as (compiled, parsed):
        asyncio.run(scenario(compiled, parsed))


# -- the issuer rule: a DP-governed issuer gets DP releases only ---------------

#: A DP SUM spends acme's whole epsilon budget; the plain SUM it wraps is
#: then cached — and used to be served exact, from that cache.
GOVERNED_TOPOLOGY = dict(shards=2, parties_per_shard=3, tables=2, partitioned=1, seed=7)
PLAIN_SUM = "SELECT SUM(value) FROM part00"
DP_SUM = f"{PLAIN_SUM} WITH SLO(dp_epsilon=1.0)"
DP_COUNT = "SELECT COUNT(value) FROM part00 WITH SLO(dp_epsilon=0.5)"


@pytest.fixture(params=["flat", "local-shards", "process-shards"])
def governed(request):
    """``(federation, acme's epsilon spent)``: acme holds a 1.0 budget — the
    flat federation's, which covers every issuer, or its tenant's."""
    topology = build_topology(**GOVERNED_TOPOLOGY)
    if request.param == "flat":
        federation = single_federation(
            topology, dp=DpPolicy(epsilon_budget=1.0, seed=11)
        )
        yield federation, lambda: federation.dp_gate.accountant.epsilon.spent
        return
    federation = sharded_federation(
        topology, processes=request.param == "process-shards", dp=DpPolicy(seed=11)
    )
    federation.set_tenant("acme", TenantPolicy(dp_epsilon_budget=1.0))
    try:
        yield federation, lambda: federation.router.tenant_snapshot()["acme"][
            "dp_epsilon_spent"
        ]
    finally:
        federation.close()


def _books(federation) -> tuple:
    """What serving anything moves: audit entries where they are in reach,
    cache hits and misses, and statements dispatched to each shard."""
    feds = [getattr(s, "federation", None) for s in getattr(federation, "shards", [])]
    audits = [len(f.audit) for f in feds or [federation] if f is not None]
    queries = dict(getattr(federation, "shard_queries", {}))
    return audits, federation.cache.hits, federation.cache.misses, queries


def test_a_governed_plain_statement_is_refused_typed(governed):
    federation, spent = governed
    released = federation.execute(DP_SUM, issuer="acme")
    assert released.protocol.endswith("+dp")
    with pytest.raises(BudgetExhausted):
        federation.execute(DP_COUNT, issuer="acme")
    assert spent() == 1.0
    before = _books(federation)
    with pytest.raises(DpRequired, match="acme"):
        federation.try_cached(PLAIN_SUM, issuer="acme")  # its inner: cached
    with pytest.raises(DpRequired):
        federation.execute(PLAIN_SUM, issuer="acme")
    (settled,) = federation.execute_many_settled([PLAIN_SUM], issuer="acme")
    assert isinstance(settled.error, DpRequired)
    assert spent() == 1.0
    assert _books(federation) == before
    # The release itself still re-serves free.
    assert federation.try_cached(DP_SUM, issuer="acme").values == released.values


def test_a_governed_plain_submission_takes_no_queue_slot(governed):
    federation, spent = governed

    async def scenario():
        async with QueryService(federation) as service:
            await service.submit(DP_SUM, issuer="acme")
            before = _books(federation), service.metrics.refused
            with pytest.raises(DpRequired):
                await service.submit(PLAIN_SUM, issuer="acme")
            assert (_books(federation), service.metrics.refused) == (
                before[0], before[1] + 1,
            )
            return service.metrics

    metrics = asyncio.run(scenario())
    assert (metrics.admitted, metrics.completed) == (1, 1)
    assert spent() == 1.0


def _exact_sum() -> tuple:
    topology = build_topology(**GOVERNED_TOPOLOGY)
    return single_federation(topology).execute(PLAIN_SUM).values


@pytest.mark.parametrize(
    "tenant, issuer",
    [
        (None, "anonymous"),  # an unbudgeted gate, as the slo_dp bench runs
        (TenantPolicy(lop_budget=5.0), "acme"),  # a LoP-only tenant
        (TenantPolicy(dp_epsilon_budget=1.0), "bravo"),  # not the tenant
    ],
    ids=["unbudgeted-gate", "lop-only-tenant", "non-tenant-issuer"],
)
def test_an_ungoverned_issuer_still_gets_exact_answers(tenant, issuer):
    topology = build_topology(**GOVERNED_TOPOLOGY)
    federation = sharded_federation(topology, dp=DpPolicy(seed=11))
    if tenant is not None:
        federation.set_tenant("acme", tenant)
    federation.execute(DP_SUM, issuer=issuer)
    exact = _exact_sum()
    assert federation.try_cached(PLAIN_SUM, issuer=issuer).values == exact
    assert federation.execute(PLAIN_SUM, issuer=issuer).values == exact
