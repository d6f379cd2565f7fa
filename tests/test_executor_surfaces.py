"""Every single-query surface runs the rule's executor and answers as the session would.

``Federation.execute``, ``run_topk_query``, kNN, monitoring, grouped top-k,
the attack helpers and ``repro-topk query`` all reach the protocol through
``run_protocol_on_vectors``' default.  For a transport-free config that is a
message-free kernel: no ``ProtocolSession`` is built, and the result equals
the session's under the same seed (message ids aside).  The session twin is
obtained without adding an option anywhere: the rule's refusal test is made
to refuse everything, so the same default routes to the session.
"""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.core import driver
from repro.core.driver import RunConfig, run_topk_query
from repro.core.results import ProtocolResult
from repro.database.database import database_from_values
from repro.database.query import Domain, TopKQuery
from repro.extensions.attacks import run_hiding_attack, run_spoofing_attack
from repro.extensions.groups import run_grouped_topk
from repro.extensions.knn import PrivateKNNClassifier, PrivateParty
from repro.extensions.monitoring import ContinuousTopKMonitor
from repro.federation import Federation
from repro.network.failures import FailureInjector
from repro.network.transport import constant_latency

from .core.test_batch_kernel_parity import assert_results_identical

DOMAIN = Domain(1, 10_000)
QUERY = TopKQuery(table="data", attribute="value", k=2, domain=DOMAIN)
VALUES = {
    "acme": [100, 900, 250],
    "bravo": [9000, 40],
    "corex": [7000, 6500, 3],
    "delta": [5, 8200],
}
VECTORS = {owner: [float(v) for v in values] for owner, values in VALUES.items()}


def federation_execute():
    federation = Federation(domain=DOMAIN, seed=7)
    for owner, values in VALUES.items():
        federation.register(database_from_values(owner, values))
    top = federation.execute("SELECT TOP 2 value FROM data")
    low = federation.execute("SELECT MIN(value) FROM data")
    return [top.values, low.values, top.trace, low.trace]


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


def monitoring():
    monitor = ContinuousTopKMonitor(query=QUERY, seed=3)
    for owner, values in VECTORS.items():
        monitor.update(owner, values)
    first = monitor.run_epoch()
    monitor.append("bravo", 9500.0)
    second = monitor.run_epoch()  # warm-started: seeds the global vector
    return [first.result, second.result, second.warm_started]


def grouped():
    vectors = {f"n{i:02d}": [float(37 * i % 9973 + 1), float(i + 1)] for i in range(12)}
    outcome = run_grouped_topk(vectors, QUERY, group_size=4, seed=9)
    return [*outcome.group_results, outcome.combiner_result, outcome.final_vector]


def attacks():
    spoof = run_spoofing_attack(VECTORS, QUERY, config=RunConfig(seed=2))
    hide = run_hiding_attack(
        VECTORS, QUERY, true_values=[9900.0, 12.0], config=RunConfig(seed=2)
    )
    return [spoof.result, hide.result, spoof.pollution(), hide.suppression()]


SURFACES = [federation_execute, topk_query, knn, monitoring, grouped, attacks]


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


@pytest.mark.parametrize(
    "obligation",
    [
        {"encrypt": True},
        {"latency": constant_latency(0.003)},
        {"failures": FailureInjector()},
    ],
    ids=["encrypt", "latency", "failures"],
)
def test_transport_obligations_still_run_the_session(obligation, sessions_built):
    databases = [database_from_values(o, vs) for o, vs in VALUES.items()]
    result = run_topk_query(databases, QUERY, RunConfig(seed=11, **obligation))
    assert len(sessions_built) == 1
    assert result.answer() == [9000.0, 8200.0]
