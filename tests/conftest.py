"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.driver import RunConfig
from repro.core.params import ProtocolParams
from repro.database.query import Domain, TopKQuery

# CI's tier-1 job selects this (``--hypothesis-profile=ci``): every property
# test draws the same examples on every run, so a red build is reproducible.
# The default profile stays randomised — locally and in the nightly chaos
# workflow, which uploads ``.hypothesis/`` when it finds a new counterexample.
settings.register_profile("ci", derandomize=True)


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
