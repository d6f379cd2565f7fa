"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.core import batch
from repro.core.driver import RunConfig
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery
from repro.experiments import runner
from repro.federation import coordinator, sql
from repro.planner import spec as planner_spec

# CI's tier-1 job selects this (``--hypothesis-profile=ci``): every property
# test draws the same examples on every run, so a red build is reproducible.
# The default profile stays randomised — locally and in the nightly chaos
# workflow, which uploads ``.hypothesis/`` when it finds a new counterexample.
settings.register_profile("ci", derandomize=True)


@contextmanager
def counting_engine(crossover: int | None = None):
    """Yield the list of vectorized-engine calls made inside (one group size each).

    The executor rule keeps groups below ``batch.VECTOR_CROSSOVER`` on the
    scalar kernel, so a suite that means to compare the *engine* on small
    batches passes ``crossover=1`` (every replayable group runs on it) and
    asserts on the yielded list that it really did.
    """
    calls: list[int] = []
    run_group = batch._Group.execute

    def counted(self, *args, **kwargs):
        calls.append(self.count)
        return run_group(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch._Group, "execute", counted)
        if crossover is not None:
            patch.setattr(batch, "VECTOR_CROSSOVER", crossover)
        yield calls


@contextmanager
def counting_compiles():
    """Yield ``(compiled, parsed)``: how often each text is compiled inside.

    ``compiled`` counts :func:`repro.planner.spec.parse_spec` calls per text,
    ``parsed`` the dialect parser's (:func:`repro.federation.sql.parse`).
    The process-wide prepared-form memo is emptied on entry, so the first
    sight of a text inside the block is a first sight for the process, and
    again on exit, so nothing compiled under the counters outlives them.
    """
    compiled: Counter[str] = Counter()
    parsed: Counter[str] = Counter()
    parse_spec, parse = planner_spec.parse_spec, sql.parse

    def counted_parse_spec(text):
        compiled[text] += 1
        return parse_spec(text)

    def counted_parse(text):
        parsed[text] += 1
        return parse(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner_spec, "parse_spec", counted_parse_spec)
        patch.setattr(planner_spec, "parse", counted_parse)
        patch.setattr(sql, "parse", counted_parse)
        planner_spec.prepared_clear()
        try:
            yield compiled, parsed
        finally:
            planner_spec.prepared_clear()


@contextmanager
def capturing_transcripts(keep=lambda result: result):
    """Yield ``keep(result)`` for every ``ProtocolResult`` a federation runs
    inside, in run order.

    An outcome is the public answer and carries no transcript, so a test that
    compares protocol runs reads them here, through the coordinator's one
    call into the driver.  Local shards run that coordinator too; a process
    shard's runs stay in its worker.  ``keep=weakref.ref`` holds nothing
    alive.
    """
    kept: list = []
    run = coordinator.run_topk_queries

    def captured(*args, **kwargs):
        results = run(*args, **kwargs)
        kept.extend(keep(result) for result in results)
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator, "run_topk_queries", captured)
        yield kept


@pytest.fixture
def transcripts():
    """The ``ProtocolResult`` of every ring a federation runs in the test."""
    with capturing_transcripts() as results:
        yield results


@pytest.fixture
def ungated_pool(monkeypatch):
    """Let ``jobs > 1`` reach the real process pool on a small workload.

    The runner's gate (``runner._pool_gate_reason``) keeps any run too short
    to amortize a pool, or asking for more workers than cores, on the serial
    engine — which is every workload a test can afford.  Suites that mean
    to exercise the pool itself switch the gate off here and assert the
    ``parallel`` telemetry mode where it matters; the gate has its own
    tests, which do not use this fixture.
    """
    monkeypatch.setattr(runner, "_pool_gate_reason", lambda jobs, setups: None)


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG; tests must not depend on global state."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def domain() -> Domain:
    """The paper's integer domain [1, 10000]."""
    return Domain(1, 10_000)


@pytest.fixture
def max_query_k1(domain: Domain) -> TopKQuery:
    return TopKQuery(table="data", attribute="value", k=1, domain=domain)


@pytest.fixture
def topk_query_k3(domain: Domain) -> TopKQuery:
    return TopKQuery(table="data", attribute="value", k=3, domain=domain)


@pytest.fixture
def paper_params() -> ProtocolParams:
    """(p0, d) = (1, 1/2), the paper's defaults."""
    return ProtocolParams.paper_defaults()


@pytest.fixture
def seeded_config(paper_params: ProtocolParams) -> RunConfig:
    return RunConfig(params=paper_params, seed=1234)


def make_vectors(values: list[float]) -> dict[str, list[float]]:
    """node{i} -> [value] helper used across protocol tests."""
    return {f"node{i}": [float(v)] for i, v in enumerate(values)}
