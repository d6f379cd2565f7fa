"""Every budget admits by one rule: a tenant's LoP as (epsilon, delta) does.

A tenant's LoP charge must pass ``SpendMeter``'s test on top of what its
batch already admitted, so a burst the gateway coalesces into one batch is
admitted exactly as the same statements sent one at a time; landing exactly
on the budget is admitted, as on every other meter; and a refusal is the one
``BudgetExhausted`` with ``dimension == "lop"``, also across the shard wire.
"""

import asyncio
from contextlib import contextmanager

import pytest

from repro.database.database import database_from_values
from repro.database.query import PAPER_DOMAIN
from repro.federation import Federation, QueryOutcome
from repro.planner import parse_spec
from repro.privacy.dp import BudgetExhausted, DpPolicy
from repro.service import QueryService
from repro.sharding import ShardedFederation, TenantPolicy
from repro.sharding.protocol import decode_error, encode_error
from repro.sharding.shards import LocalShard, ProcessShard

BURST = [f"SELECT TOP {k} value FROM data" for k in range(1, 9)]


def parties(count: int) -> Federation:
    federation = Federation(domain=PAPER_DOMAIN, seed=1)
    for index in range(count):
        values = [100 * index + v for v in (5, 17, 29, 41)]
        federation.register(database_from_values(f"p{index:02d}", values))
    return federation


@contextmanager
def one_shard(count: int, processes: bool, **options):
    shard = LocalShard(parties(count))
    if processes:
        shard = ProcessShard.launch(shard)
    try:
        if processes:
            shard.handshake()
        yield ShardedFederation([shard], domain=PAPER_DOMAIN, **options)
    finally:
        shard.close()


def pattern(results: list) -> list[str]:
    return [
        "served" if isinstance(result, QueryOutcome)
        else f"{type(result).__name__}:{result.dimension}"
        for result in results
    ]


@pytest.mark.parametrize("processes", [False, True], ids=["local", "processes"])
def test_a_gateway_burst_is_admitted_as_if_sent_one_at_a_time(processes):
    # Three parties: each TOP k expects 0.25 LoP, so a 0.6 budget pays two.
    async def burst(front):
        async with QueryService(front) as service:
            return await service.submit_many(
                BURST, issuer="tenant", return_exceptions=True
            )

    async def one_at_a_time(front):
        async with QueryService(front) as service:
            results = []
            for text in BURST:
                try:
                    results.append(await service.submit(text, issuer="tenant"))
                except BudgetExhausted as exc:
                    results.append(exc)
            return results

    spent = []
    patterns = []
    for serve in (burst, one_at_a_time):
        with one_shard(3, processes) as front:
            front.set_tenant("tenant", TenantPolicy(lop_budget=0.6))
            patterns.append(pattern(asyncio.run(serve(front))))
            spent.append(front.router.tenant("tenant").lop_spent)
    assert patterns[0] == patterns[1] == ["served"] * 2 + ["BudgetExhausted:lop"] * 6
    assert spent == [0.5, 0.5]


@pytest.mark.parametrize("processes", [False, True], ids=["local", "processes"])
def test_a_tenant_budget_admits_a_charge_that_lands_exactly_on_it(processes):
    # Eleven parties under the naive protocol: each TOP k expects the same
    # charge, and five of them land on the budget up to float noise.
    statements = [
        f"SELECT TOP {k} value FROM data WITH SLO(protocol=naive)" for k in range(1, 6)
    ]
    with one_shard(11, processes) as front:
        charge = front.plan_for(parse_spec(statements[0])).estimate.expected_lop
        assert charge == pytest.approx(0.22494752722025446)
        front.set_tenant("tenant", TenantPolicy(lop_budget=5 * charge))
        for text in statements:
            assert not front.execute(text, issuer="tenant").cached
        with pytest.raises(BudgetExhausted) as refused:
            front.execute("SELECT TOP 6 value FROM data", issuer="tenant")
        assert refused.value.dimension == "lop"
        assert str(refused.value).startswith("tenant 'tenant' lop budget exhausted")


def test_a_release_over_a_cached_answer_draws_no_lop_in_its_batch():
    # The release's inner answer is already public, so nothing runs for it:
    # the TOP 3 behind it is admitted as if the release had come alone.
    top3 = "SELECT TOP 3 value FROM data"
    batch = ["SELECT TOP 2 value FROM data WITH SLO(dp_epsilon=0.5)", top3]
    with one_shard(3, False, dp=DpPolicy(seed=2)) as front:
        front.execute("SELECT TOP 2 value FROM data")
        charge = front.plan_for(parse_spec(top3)).estimate.expected_lop
        front.set_tenant("tenant", TenantPolicy(lop_budget=charge))
        results = front.execute_many_settled(batch, issuer="tenant")
        assert pattern(results) == ["served", "served"]
        assert front.router.tenant("tenant").lop_spent == charge


def test_a_budget_refusal_crosses_the_wire_as_itself():
    for dimension in ("lop", "epsilon", "delta"):
        error = decode_error(encode_error(BudgetExhausted("spent", dimension=dimension)))
        assert type(error) is BudgetExhausted
        assert (str(error), error.dimension) == ("spent", dimension)
