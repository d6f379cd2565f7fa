"""Worker processes over real sockets: parity, codec, typed degradation."""

import asyncio

import pytest

from repro.core.driver import RunConfig
from repro.core.params import ProtocolParams
from repro.core.schedule import LinearSchedule
from repro.federation.coordinator import QueryOutcome, QueryRefused
from repro.federation.sql import SqlError
from repro.network.failures import FailureInjector
from repro.planner.errors import PlanInfeasible
from repro.service import QueryService
from repro.sharding import (
    ShardError,
    ShardUnavailable,
    TenantRateLimited,
    build_topology,
    exact_config,
    sharded_federation,
    single_federation,
    topology_workload,
)
from repro.sharding.protocol import (
    decode_error,
    decode_settled,
    encode_error,
    encode_outcome,
    decode_outcome,
    encode_settled,
)


# -- codec (no processes) -----------------------------------------------------


def test_outcome_codec_roundtrip():
    outcome = QueryOutcome(
        statement="SELECT TOP 2 value FROM t00",
        values=(9.0, 7.0),
        protocol="probabilistic",
        rounds=4,
        messages=15,
        trace=None,
        cached=True,
        simulated_seconds=0.015,
    )
    decoded = decode_outcome(encode_outcome(outcome))
    assert decoded == outcome


def test_error_codec_keeps_types_and_never_untyped():
    for error in (
        SqlError("bad statement"),
        PlanInfeasible("no plan"),
        ShardUnavailable("gone", shard=2),
        TenantRateLimited("slow down"),
    ):
        decoded = decode_error(encode_error(error))
        assert type(decoded) is type(error)
        assert str(error) in str(decoded)
    # Unknown exception types degrade to ShardError carrying the name.
    decoded = decode_error(encode_error(KeyError("boom")))
    assert isinstance(decoded, ShardError)
    assert "KeyError" in str(decoded)


def test_settled_codec_roundtrip():
    settled = [
        QueryOutcome(
            statement="s1", values=(1.0,), protocol="naive", rounds=1,
            messages=3, trace=None, cached=False, simulated_seconds=0.1,
        ),
        QueryRefused(statement="s2", error=SqlError("nope")),
    ]
    decoded = decode_settled(encode_settled(settled))
    assert decoded[0] == settled[0]
    assert isinstance(decoded[1], QueryRefused)
    assert isinstance(decoded[1].error, SqlError)
    assert decoded[1].statement == "s2"


# -- live worker processes ----------------------------------------------------


@pytest.fixture(scope="module")
def process_setup():
    topology = build_topology(
        shards=3, parties_per_shard=3, tables=4, rows_per_table=16,
        partitioned=1, seed=13,
    )
    sharded = sharded_federation(topology, processes=True)
    yield topology, sharded
    sharded.close()


def test_process_shards_match_oracle(process_setup):
    topology, sharded = process_setup
    statements = topology_workload(topology, 25, seed=1)
    oracle = single_federation(topology)
    expected = oracle.execute_many_settled(statements, issuer="t")
    got = sharded.execute_many_settled(statements, issuer="t")
    for want, have in zip(expected, got):
        assert isinstance(have, QueryOutcome)
        assert have.values == want.values
    # No outcome carries a transcript, on either side of the wire.
    assert all(o.trace is None for o in expected + got)


def test_process_shard_refusals_arrive_typed(process_setup):
    _topology, sharded = process_setup
    result = sharded.execute_many_settled(
        ["SELECT TOP 1 value FROM nowhere"], issuer="t"
    )[0]
    assert isinstance(result, QueryRefused)
    # The worker's refusal crosses the wire as a typed exception, and the
    # statement is a parse-valid unknown table, so it is a federation-side
    # error (not ShardUnavailable: the shard is alive and answered).
    assert not isinstance(result.error, ShardUnavailable)


@pytest.mark.parametrize(
    "warm", [True, False], ids=["after-first-batch", "before-first-read"]
)
def test_sigkilled_worker_degrades_typed_and_local_shards_survive(warm):
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=21,
    )
    statements = topology_workload(topology, 20, seed=2)
    # An unkilled twin's answers are what the survivor must still give.
    first = sharded_federation(topology).execute_many_settled(statements, issuer="t")
    assert all(isinstance(r, QueryOutcome) for r in first)

    sharded = sharded_federation(topology, processes=True)
    try:
        if warm:
            sharded.execute_many_settled(statements, issuer="t")
        # SIGKILL mid-session, or before any statement has asked the shard
        # anything (its membership included).
        sharded.shards[0].kill()
        after = sharded.execute_many_settled(statements, issuer="t")
        refused = [r for r in after if isinstance(r, QueryRefused)]
        served = [r for r in after if isinstance(r, QueryOutcome)]
        assert refused, "killing a shard must refuse its statements"
        assert all(isinstance(r.error, ShardUnavailable) for r in refused)
        assert served, "surviving shards must keep serving"
        by_statement = {r.statement: r.values for r in first}
        for outcome in served:
            assert outcome.values == by_statement[outcome.statement]
        # The admission fast path treats the dead shard as a cache miss,
        # never an exception.
        for statement in statements:
            sharded.try_cached(statement, issuer="t")  # must not raise
    finally:
        sharded.close()


def test_gateway_serves_an_slo_statement_beside_a_worker_killed_before_first_read():
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=21,
    )
    sharded = sharded_federation(topology, processes=True)
    try:
        sharded.shards[1].kill()
        live = next(t for t in topology.tables if sharded.router.route(t) == 0)
        statement = f"SELECT TOP 3 value FROM {live} WITH SLO(deadline=5.0)"

        async def submit():
            async with QueryService(sharded) as service:
                return await service.submit(statement, issuer="t")

        outcome = asyncio.run(submit())
        oracle = single_federation(topology).execute(statement, issuer="t")
        assert outcome.values == oracle.values
    finally:
        sharded.close()


def test_the_gateway_measures_lop_through_a_worker():
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=21,
    )
    routed = [t for t in topology.tables if t not in topology.partitioned]
    statements = [f"SELECT MAX(value) FROM {t} WITH SLO(deadline=5.0)" for t in routed]

    def accuracy(sharded):
        async def serve():
            async with QueryService(sharded) as service:
                await service.submit_many(statements, issuer="t")
                return service.accuracy

        return asyncio.run(serve())

    remote = sharded_federation(topology, processes=True)
    try:
        by_process = accuracy(remote)
    finally:
        remote.close()
    by_local = accuracy(sharded_federation(topology))
    # Each single-extraction ring's LoP crossed the wire into the Eq. 6 audit.
    assert by_process.recorded == by_process.lop_checked == len(routed)
    assert by_process.snapshot() == by_local.snapshot()


# -- one config for local and process twins ------------------------------------


def _shown(result):
    """What a twin must match: the whole outcome, or a refusal's type and text."""
    if isinstance(result, QueryRefused):
        return type(result.error), str(result.error)
    return result


@pytest.mark.parametrize(
    "config, rounds",
    [
        pytest.param(exact_config(rounds=7), 7, id="exact-rounds-7"),
        # Randomising (p0 = 1): equal values need the same seeds AND the same
        # schedule on both sides.  Eq. 4 at the default epsilon gives 5 rounds.
        pytest.param(
            RunConfig(params=ProtocolParams.with_randomization(1.0, 0.5)),
            5,
            id="seeded-p0-1-d-half",
        ),
        # A forked worker receives the config object itself, so what no JSON
        # spec could carry runs, or is refused, the same on both twins.
        pytest.param(RunConfig(failures=FailureInjector()), None, id="failures"),
        pytest.param(
            RunConfig(ring_builder=lambda ids, rng: None), None, id="ring_builder"
        ),
        pytest.param(
            RunConfig(params=ProtocolParams(schedule=LinearSchedule())),
            None,
            id="schedule",
        ),
        pytest.param(RunConfig(params=ProtocolParams(epsilon=0.01)), None, id="epsilon"),
    ],
)
def test_local_and_process_twins_run_the_same_config(config, rounds):
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=17,
    )
    statements = [
        s for s in topology_workload(topology, 16, seed=4) if "TOP" in s or "MAX" in s
    ]
    local = sharded_federation(topology, config=config)
    remote = sharded_federation(topology, processes=True, config=config)
    try:
        by_local = local.execute_many_settled(statements, issuer="t")
        by_process = remote.execute_many_settled(statements, issuer="t")
    finally:
        remote.close()
    assert [_shown(r) for r in by_local] == [_shown(r) for r in by_process]
    if rounds is None:
        return
    assert any(not outcome.cached for outcome in by_local)
    for outcome in by_local:
        if not outcome.cached and outcome.rounds:
            assert outcome.rounds == rounds


def test_a_worker_forked_from_a_warm_gateway_answers_as_its_local_twin():
    """Module state crosses the fork — the audit and message id counters, the
    ``spec.prepare`` LRU, the sampling module's kept harvest — and must not bend a
    worker's answers away from its in-process twin's."""
    config = RunConfig(params=ProtocolParams.with_randomization(1.0, 0.5))
    warm = build_topology(shards=1, parties_per_shard=4, tables=6, seed=31)
    single_federation(warm, config=config).execute_many_settled(
        topology_workload(warm, 200, seed=8), issuer="warm"
    )
    topology = build_topology(
        shards=2, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=19,
    )
    statements = topology_workload(topology, 40, seed=9)
    local = sharded_federation(topology, config=config)
    remote = sharded_federation(topology, processes=True, config=config)
    try:
        by_local = local.execute_many_settled(statements, issuer="t")
        by_process = remote.execute_many_settled(statements, issuer="t")
        assert all(isinstance(r, QueryOutcome) for r in by_local)
        assert [_shown(r) for r in by_local] == [_shown(r) for r in by_process]
        assert [s.cache_stats() for s in local.shards] == [
            s.cache_stats() for s in remote.shards
        ]
    finally:
        remote.close()


@pytest.mark.parametrize("shards", [2, 3])
def test_a_fanout_hit_is_two_exchanges_per_shard(shards, monkeypatch):
    """A fan-out hit peeks every shard for all its texts in one frame each,
    then serves them in one frame each: every frame of a phase is written
    before any of its replies is read, whatever the shard and text count."""
    from repro.sharding import shards as shards_module

    topology = build_topology(
        shards=shards, parties_per_shard=3, tables=2, rows_per_table=8,
        partitioned=1, seed=17,
    )
    sharded = sharded_federation(topology, processes=True)
    port_to_shard = {shard.port: shard.index for shard in sharded.shards}
    wire: list[tuple[str, int]] = []
    send, recv = shards_module.send_json, shards_module.recv_json

    def spy_send(sock, payload):
        wire.append((payload["op"], port_to_shard[sock.getpeername()[1]]))
        return send(sock, payload)

    def spy_recv(sock):
        wire.append(("reply", port_to_shard[sock.getpeername()[1]]))
        return recv(sock)

    monkeypatch.setattr(shards_module, "send_json", spy_send)
    monkeypatch.setattr(shards_module, "recv_json", spy_recv)
    table = topology.partitioned[0]
    try:
        for statement in (
            f"SELECT AVG(value) FROM {table}",  # two texts per shard
            f"SELECT SUM(value) FROM {table}",
            f"SELECT TOP 2 value FROM {table}",
        ):
            served = sharded.execute(statement)
            wire.clear()
            hit = sharded.try_cached(statement, issuer="t")
            assert hit is not None and hit.cached
            assert hit.values == served.values
            indices = range(shards)
            assert wire == (
                [("peek_many", i) for i in indices]
                + [("reply", i) for i in indices]
                + [("try_cached_many", i) for i in indices]
                + [("reply", i) for i in indices]
            ), statement
    finally:
        sharded.close()
