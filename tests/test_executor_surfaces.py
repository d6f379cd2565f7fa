"""Every single-query surface runs the rule's executor and answers as the session would.

``Federation.execute``, ``run_topk_query``, kNN, grouped top-k and
``repro-topk query`` all reach the protocol through
``run_protocol_on_vectors``' default.  For a transport-free config that is a
message-free kernel: no ``ProtocolSession`` is built, and the result equals
the session's under the same seed (message ids aside).  The session twin is
obtained without adding an option anywhere: the rule's refusal test is made
to refuse everything, so the same default routes to the session.

No surface above the driver takes an executor option: the statement
language refuses the retired ``backend`` key before a queue slot, and a
gateway batch of planned statements runs whatever the federation's config
obliges — counted here by the same mechanism.  The one obligation left is a
failure injector: even an idle one runs the session, which then answers
exactly as the kernel does.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main as cli_main
from repro.core import driver
from repro.core.driver import RunConfig, run_topk_query
from repro.core.results import ProtocolResult
from repro.database.database import database_from_values
from repro.database.query import Domain, TopKQuery
from repro.extensions.groups import run_grouped_topk
from repro.extensions.knn import PrivateKNNClassifier, PrivateParty
from repro.experiments.config import TrialSetup
from repro.experiments.runner import run_trials
from repro.federation import Federation
from repro.network.failures import FailureInjector
from repro.planner import SloError
from repro.service import QueryService

from .conftest import capturing_transcripts
from .core.test_batch_kernel_parity import assert_results_identical

DOMAIN = Domain(1, 10_000)
QUERY = TopKQuery(table="data", attribute="value", k=2, domain=DOMAIN)
VALUES = {
    "acme": [100, 900, 250],
    "bravo": [9000, 40],
    "corex": [7000, 6500, 3],
    "delta": [5, 8200],
}


def federation_execute():
    federation = Federation(domain=DOMAIN, seed=7)
    for owner, values in VALUES.items():
        federation.register(database_from_values(owner, values))
    with capturing_transcripts() as runs:
        top = federation.execute("SELECT TOP 2 value FROM data")
        low = federation.execute("SELECT MIN(value) FROM data")
    assert len(runs) == 2
    return [top, low, *runs]


def topk_query():
    databases = [database_from_values(o, vs) for o, vs in VALUES.items()]
    return [run_topk_query(databases, QUERY, RunConfig(seed=11))]


def knn():
    parties = []
    for index, name in enumerate(("p0", "p1", "p2")):
        party = PrivateParty(name)
        for j in range(4):
            party.add((float(index + j), float(j * 2 - index)), "hot" if j % 2 else "cold")
        parties.append(party)
    classifier = PrivateKNNClassifier(parties, k=3, seed=5)
    return [classifier.classify((1.0, 1.5)), classifier.classify((3.0, -1.0))]


def grouped():
    vectors = {f"n{i:02d}": [float(37 * i % 9973 + 1), float(i + 1)] for i in range(12)}
    outcome = run_grouped_topk(vectors, QUERY, group_size=4, seed=9)
    return [*outcome.group_results, outcome.combiner_result, outcome.final_vector]


SURFACES = [federation_execute, topk_query, knn, grouped]


@pytest.fixture
def sessions_built(monkeypatch):
    """The ``ProtocolSession`` objects the driver constructs, as a list."""
    built = []
    session_class = driver.ProtocolSession

    def counted(*args, **kwargs):
        built.append(session_class(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(driver, "ProtocolSession", counted)
    return built


def assert_same(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        if isinstance(want, ProtocolResult):
            assert_results_identical(want, got)
        else:
            assert got == want


@pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.__name__)
def test_surface_runs_a_kernel_and_equals_its_session_run(
    surface, sessions_built, monkeypatch
):
    by_rule = surface()
    assert sessions_built == []
    monkeypatch.setattr(driver, "kernel_refusal", lambda config: "forced for the twin")
    by_session = surface()
    assert sessions_built, "the twin run was meant to use the session"
    assert_same(by_session, by_rule)


def test_cli_query_prints_the_same_report(sessions_built, monkeypatch, capsys):
    argv = ["query", "--nodes", "6", "--k", "3", "--seed", "7", "--privacy-report"]
    assert cli_main(argv) == 0
    by_rule = capsys.readouterr().out
    assert sessions_built == []
    monkeypatch.setattr(driver, "kernel_refusal", lambda config: "forced for the twin")
    assert cli_main(argv) == 0
    assert sessions_built
    assert capsys.readouterr().out == by_rule


def unfired_crash():
    failures = FailureInjector()
    failures.schedule_crash("acme", after_messages=10_000)
    return failures


@pytest.mark.parametrize(
    "injector", [FailureInjector, unfired_crash], ids=["failures", "unfired-crash"]
)
def test_transport_obligations_still_run_the_session(injector, sessions_built):
    databases = [database_from_values(o, vs) for o, vs in VALUES.items()]
    by_kernel = run_topk_query(databases, QUERY, RunConfig(seed=11))
    assert sessions_built == []
    result = run_topk_query(databases, QUERY, RunConfig(seed=11, failures=injector()))
    assert len(sessions_built) == 1
    assert result.answer() == [9000.0, 8200.0]
    assert_results_identical(by_kernel, result)


def test_trial_harness_builds_no_session(sessions_built):
    results = run_trials(TrialSetup(n=4, k=2, trials=5, seed=3))
    assert len(results) == 5
    assert sessions_built == []


#: Eight planned ranking statements: one gateway batch, eight executions.
SLO_BATCH = [
    f"SELECT TOP {k} value FROM data WITH SLO(deadline=5.0)" for k in range(1, 9)
]


def gateway_batch(statements, **federation_kwargs):
    """Submit ``statements`` as one burst; (outcomes-or-errors, service)."""
    federation = Federation(domain=DOMAIN, seed=7, **federation_kwargs)
    for owner, values in VALUES.items():
        federation.register(database_from_values(owner, values))

    async def scenario():
        async with QueryService(federation, max_batch=len(statements)) as service:
            settled = await service.submit_many(statements, return_exceptions=True)
            return settled, service

    return asyncio.run(scenario())


def test_gateway_batch_of_planned_statements_builds_no_session(sessions_built):
    settled, service = gateway_batch(SLO_BATCH)
    assert [outcome.values[0] for outcome in settled] == [9000.0] * 8
    assert service.accuracy.recorded == 8
    assert sessions_built == []


def test_gateway_batch_with_a_failure_injector_builds_one_session_each(
    sessions_built,
):
    plain, _ = gateway_batch(SLO_BATCH)
    assert sessions_built == []
    injected, _ = gateway_batch(
        SLO_BATCH, config=RunConfig(failures=FailureInjector())
    )
    assert len(sessions_built) == len(SLO_BATCH)
    for want, got in zip(plain, injected):
        assert got.values == want.values
        assert got.simulated_seconds == want.simulated_seconds
        assert got.messages == want.messages


@pytest.mark.parametrize("value", ["session", "kernel", "auto"])
def test_retired_backend_key_is_refused_before_a_queue_slot(value, sessions_built):
    pinned = f"SELECT TOP 9 value FROM data WITH SLO(deadline=5.0, backend={value})"
    settled, service = gateway_batch([*SLO_BATCH, pinned])
    assert isinstance(settled[-1], SloError)
    assert "unknown SLO key 'backend'" in str(settled[-1])
    # The other issuers' statements are untouched by it: same answers, same
    # executor, and the refused one never queued, planned or ran.
    assert [outcome.values[0] for outcome in settled[:-1]] == [9000.0] * 8
    assert sessions_built == []
    assert service.metrics.admitted == len(SLO_BATCH)
    assert service.accuracy.recorded == len(SLO_BATCH)
