"""Acceptance: service results are bit-identical to solo execution.

The ISSUE's determinism criterion — a query served through the gateway must
equal the result of a sequential ``Federation.execute`` session issuing the
same statements in serve order under the same session seed.  This rests on
the federation's plan-time seed derivation (seeds drawn in statement order),
which the service preserves by construction.
"""

import asyncio

from repro.federation import AccessPolicy, PolicyViolation
from repro.service import QueryService

from .conftest import DATASETS, MIXED_STATEMENTS, fresh_federation


def serve(statements, *, seed=41, **service_kwargs):
    async def scenario():
        service = QueryService(fresh_federation(seed=seed), **service_kwargs)
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

    def test_ranking_traces_identical(self):
        _service, (served,) = serve(["SELECT TOP 3 value FROM data"], seed=99)
        solo = fresh_federation(seed=99).execute("SELECT TOP 3 value FROM data")
        assert served.trace is not None
        assert served.trace.final_vector == solo.trace.final_vector
        assert served.trace.ring_order == solo.trace.ring_order
        assert served.trace.rounds_executed == solo.trace.rounds_executed
        assert served.trace.round_snapshots == solo.trace.round_snapshots

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
        policy = (
            AccessPolicy()
            .allow("anonymous", "TOP")
            .allow("anonymous", "MAX")
        )

        async def scenario():
            service = QueryService(fresh_federation(seed=5, policy=policy))
            async with service:
                return await service.submit_many(
                    [
                        "SELECT TOP 3 value FROM data",
                        "SELECT SUM(value) FROM data",  # denied by policy
                        "SELECT MAX(value) FROM data",
                    ],
                    return_exceptions=True,
                )

        results = asyncio.run(scenario())
        assert results[0].values == (9000.0, 7000.0, 6500.0)
        assert isinstance(results[1], PolicyViolation)
        assert results[2].values == (9000.0,)

    def test_refused_statements_do_not_shift_survivor_seeds(self):
        policy = AccessPolicy().allow("anonymous", "TOP")

        async def scenario():
            service = QueryService(fresh_federation(seed=13, policy=policy))
            async with service:
                return await service.submit_many(
                    [
                        "SELECT SUM(value) FROM data",  # denied
                        "SELECT TOP 3 value FROM data",
                    ],
                    return_exceptions=True,
                )

        results = asyncio.run(scenario())
        assert isinstance(results[0], PolicyViolation)
        # Reference session that skips the refused statement entirely.
        solo = fresh_federation(seed=13).execute("SELECT TOP 3 value FROM data")
        assert results[1].values == solo.values
        assert results[1].trace.ring_order == solo.trace.ring_order
