"""Acceptance: service results are bit-identical to solo execution.

The ISSUE's determinism criterion — a query served through the gateway must
equal the result of a sequential ``Federation.execute`` session issuing the
same statements in serve order under the same session seed.  This rests on
the federation's plan-time seed derivation (seeds drawn in statement order),
which the service preserves by construction.
"""

import asyncio

import pytest

from repro.privacy.dp import DpPolicy, DpRequired
from repro.service import QueryService
from repro.sharding import ShardedFederation, TenantPolicy
from repro.sharding.shards import LocalShard

from .conftest import DATASETS, MIXED_STATEMENTS, fresh_federation

#: A federation-wide budget: every issuer is DP-governed.
GOVERNED = DpPolicy(epsilon_budget=4.0, seed=9)
DP_TOP = "SELECT TOP 3 value FROM data WITH SLO(dp_epsilon=1.0)"


def serve(statements, *, seed=41, dp=None, **service_kwargs):
    async def scenario():
        service = QueryService(fresh_federation(seed=seed, dp=dp), **service_kwargs)
        async with service:
            outcomes = await service.submit_many(
                statements, return_exceptions=True
            )
        return service, outcomes

    return asyncio.run(scenario())


class TestSoloParity:
    def test_values_rounds_protocol_match_sequential(self):
        workload = MIXED_STATEMENTS + MIXED_STATEMENTS[:2]  # with repeats
        _service, served = serve(workload, seed=41)
        reference = fresh_federation(seed=41)
        solo = [reference.execute(s) for s in workload]
        for via_service, via_solo in zip(served, solo):
            assert via_service.values == via_solo.values
            assert via_service.rounds == via_solo.rounds
            assert via_service.protocol == via_solo.protocol
            assert via_service.cached == via_solo.cached

    def test_ranking_traces_identical(self, transcripts):
        _service, (served,) = serve(["SELECT TOP 3 value FROM data"], seed=99)
        solo = fresh_federation(seed=99).execute("SELECT TOP 3 value FROM data")
        assert served == solo
        served_run, solo_run = transcripts
        assert served_run.final_vector == solo_run.final_vector
        assert served_run.ring_order == solo_run.ring_order
        assert served_run.rounds_executed == solo_run.rounds_executed
        assert served_run.round_snapshots == solo_run.round_snapshots

    def test_ledger_exposure_matches_sequential(self):
        service, _ = serve(MIXED_STATEMENTS, seed=41)
        reference = fresh_federation(seed=41)
        for statement in MIXED_STATEMENTS:
            reference.execute(statement)
        for owner in DATASETS:
            assert service.federation.ledger.exposure(
                owner
            ) == reference.ledger.exposure(owner)

    def test_batch_size_does_not_change_results(self):
        values_by_batch_size = []
        for max_batch in (1, 2, 8):
            _service, served = serve(MIXED_STATEMENTS, seed=7, max_batch=max_batch)
            values_by_batch_size.append([o.values for o in served])
        assert values_by_batch_size[0] == values_by_batch_size[1]
        assert values_by_batch_size[1] == values_by_batch_size[2]


class TestTypedRefusals:
    def test_policy_refusal_propagates_without_poisoning_the_batch(self):
        dp_max = "SELECT MAX(value) FROM data WITH SLO(dp_epsilon=1.0)"
        _service, results = serve(
            [DP_TOP, "SELECT SUM(value) FROM data", dp_max], seed=5, dp=GOVERNED
        )
        assert isinstance(results[1], DpRequired)
        # A session that skips the refused statement serves the same bytes.
        _service, reference = serve([DP_TOP, dp_max], seed=5, dp=GOVERNED)
        assert [results[0], results[2]] == reference

    def test_refused_statements_do_not_shift_survivor_seeds(self, transcripts):
        _service, results = serve(
            ["SELECT SUM(value) FROM data", DP_TOP], seed=13, dp=GOVERNED
        )
        assert isinstance(results[0], DpRequired)
        # Reference session that skips the refused statement entirely.
        _service, (solo,) = serve([DP_TOP], seed=13, dp=GOVERNED)
        assert results[1] == solo
        served_run, solo_run = transcripts
        assert served_run.ring_order == solo_run.ring_order

    def test_a_budget_installed_after_admission_refuses_at_dequeue(self):
        # Admitted while ungoverned, the plain statement meets the issuer
        # rule again at the dequeue-time fast path: refused, nothing run.
        shard = fresh_federation(seed=3)
        federation = ShardedFederation([LocalShard(shard)], dp=DpPolicy(seed=3))
        plain = "SELECT SUM(value) FROM data"

        async def scenario():
            async with QueryService(federation) as service:
                task = asyncio.ensure_future(service.submit(plain, issuer="acme"))
                await asyncio.sleep(0)
                assert service.metrics.admitted == 1
                federation.set_tenant("acme", TenantPolicy(dp_epsilon_budget=1.0))
                with pytest.raises(DpRequired):
                    await task
            return service

        metrics = asyncio.run(scenario()).metrics
        assert (metrics.refused, metrics.batches, metrics.completed) == (1, 0, 0)
        assert len(shard.audit) == 0 and shard.cache.misses == 0
