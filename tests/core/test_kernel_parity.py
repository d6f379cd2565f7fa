"""Property-based parity: the kernel fast path vs the transport session.

The kernel's whole claim (ISSUE 4, perf_opt) is *bit-identical* results with
the Message objects, codec and delivery heap removed.  These tests pin that
claim across the protocol matrix — all three protocols, k in 1..5, rings of
3..40 nodes, uniform/normal/zipf integral data and real-valued domains —
comparing every trace field of the :class:`ProtocolResult` plus the per-node
diagnostic counters the session keeps on its nodes.  Message ids are the one
sanctioned difference: they come from a process-global sequence, so their
absolute values depend on what ran earlier in the process.

Alongside parity: the kernel's refusal surface (configs it cannot honor
exactly must raise, not approximate) and the closed-form wire arithmetic
(the byte model must equal ``Message.size_bytes`` of the real encoding).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import (
    KERNEL,
    PROTOCOLS,
    DriverError,
    RunConfig,
    run_protocol_on_vectors,
)
from repro.core.kernel import (
    _FIXED,
    _RESULT_LEN,
    _TOKEN_LEN,
    KernelUnsupported,
    _id_len,
    _vector_bytes,
    execute,
    kernel_refusal,
)
from repro.core.params import ProtocolParams
from repro.core.session import ProtocolSession, prepare_query_vectors
from repro.database.generator import DISTRIBUTIONS, DataGenerator
from repro.database.query import Domain, TopKQuery
from repro.network.failures import FailureInjector
from repro.network.message import MessageType, result_message, token_message
from repro.network.transport import InMemoryTransport

INTEGRAL_DOMAIN = Domain(1, 10_000)
REAL_DOMAIN = Domain(1.0, 10_000.0, integral=False)


def _run_session(vectors, query, config):
    """The session path exactly as the driver runs it, keeping the nodes.

    ``run_protocol_on_vectors`` discards the session, but parity must also
    cover the per-node counters (randomized rounds, reveal round, insert
    state) that live on the node algorithms — so run the steps by hand.
    """
    prepared = prepare_query_vectors(vectors, query)
    transport = InMemoryTransport()
    session = ProtocolSession(prepared, config, transport)
    session.start()
    transport.run_until_idle()
    session.recover()
    result = session.finalize()
    algorithms = {nid: node.algorithm for nid, node in session.nodes.items()}
    return result, algorithms


def _counters(algorithm) -> tuple:
    """The diagnostic counters a node algorithm exposes (None when absent)."""
    return (
        getattr(algorithm, "randomized_rounds", None),
        getattr(algorithm, "revealed_round", None),
        getattr(algorithm, "has_inserted", None),
    )


def assert_results_identical(session_result, kernel_result) -> None:
    """Field-by-field bitwise equality, message ids excepted."""
    assert kernel_result.query == session_result.query
    assert kernel_result.protocol == session_result.protocol
    assert kernel_result.final_vector == session_result.final_vector
    assert kernel_result.ring_order == session_result.ring_order
    assert kernel_result.starter == session_result.starter
    assert kernel_result.local_vectors == session_result.local_vectors
    assert kernel_result.round_snapshots == session_result.round_snapshots
    assert kernel_result.ring_history == session_result.ring_history
    assert kernel_result.simulated_seconds == session_result.simulated_seconds
    assert kernel_result.stats == session_result.stats
    assert kernel_result.negated == session_result.negated
    assert kernel_result.original_query == session_result.original_query
    expected = list(session_result.event_log)
    actual = list(kernel_result.event_log)
    assert len(actual) == len(expected)
    for theirs, ours in zip(expected, actual):
        assert ours.round == theirs.round
        assert ours.sender == theirs.sender
        assert ours.receiver == theirs.receiver
        assert ours.vector == theirs.vector
        assert ours.kind == theirs.kind
        assert ours.query == theirs.query


@st.composite
def parity_cases(draw):
    """One point of the ISSUE's parity matrix: (vectors, query, config)."""
    protocol = draw(st.sampled_from(PROTOCOLS))
    k = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=3, max_value=40))
    per_node = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    integral = draw(st.booleans())
    distribution = draw(st.sampled_from(sorted(DISTRIBUTIONS)))
    smallest = draw(st.booleans())
    rounds = draw(st.sampled_from((None, 1, 3, 6)))
    remap = draw(st.booleans())
    insert_once = draw(st.booleans())

    rng = random.Random(seed)
    if integral:
        domain = INTEGRAL_DOMAIN
        generator = DataGenerator(domain=domain, distribution=distribution, rng=rng)
        datasets = generator.node_datasets(n, per_node)
        vectors = {
            f"n{i}": [float(v) for v in values] for i, values in enumerate(datasets)
        }
    else:
        # DataGenerator draws from integer domains only; real-valued
        # workloads come straight from the RNG.
        domain = REAL_DOMAIN
        vectors = {
            f"n{i}": [rng.uniform(domain.low, domain.high) for _ in range(per_node)]
            for i in range(n)
        }
    query = TopKQuery(table="t", attribute="v", k=k, domain=domain, smallest=smallest)
    params = ProtocolParams(
        rounds=rounds, remap_each_round=remap, insert_once=insert_once
    )
    config = RunConfig(protocol=protocol, params=params, seed=seed)
    return vectors, query, config


@given(parity_cases())
@settings(max_examples=60, deadline=None)
def test_kernel_bit_identical_to_session(case):
    vectors, query, config = case
    session_result, session_algorithms = _run_session(vectors, query, config)
    kernel_run = execute(prepare_query_vectors(vectors, query), config)

    assert_results_identical(session_result, kernel_run.result)
    # Same derived metrics, therefore same figure points.
    assert kernel_run.result.precision() == session_result.precision()
    assert kernel_run.result.answer() == session_result.answer()
    # Per-node randomized-round / exposure counters match too.
    assert set(kernel_run.algorithms) == set(session_algorithms)
    for node_id, algorithm in kernel_run.algorithms.items():
        assert _counters(algorithm) == _counters(session_algorithms[node_id])


@given(parity_cases())
@settings(max_examples=20, deadline=None)
def test_driver_backend_dispatch_matches_manual_kernel(case):
    """``backend="kernel"`` through the public driver is the same fast path."""
    vectors, query, config = case
    via_driver = run_protocol_on_vectors(vectors, query, config, backend=KERNEL)
    direct = execute(prepare_query_vectors(vectors, query), config).result
    assert via_driver.final_vector == direct.final_vector
    assert via_driver.round_snapshots == direct.round_snapshots
    assert via_driver.stats == direct.stats


# -- refusal surface ----------------------------------------------------------


class TestKernelRefusals:
    VECTORS = {f"n{i}": [float(10 + i)] for i in range(4)}
    QUERY = TopKQuery(table="t", attribute="v", k=1)

    def test_refuses_real_failure_injectors(self):
        config = RunConfig(seed=7, failures=FailureInjector())
        assert kernel_refusal(config) is not None
        with pytest.raises(KernelUnsupported, match="failure"):
            run_protocol_on_vectors(self.VECTORS, self.QUERY, config, backend=KERNEL)

    def test_refusal_propagates_through_the_driver(self):
        config = RunConfig(seed=7, failures=FailureInjector())
        with pytest.raises(KernelUnsupported):
            run_protocol_on_vectors(self.VECTORS, self.QUERY, config, backend=KERNEL)
        # ...and KernelUnsupported is a DriverError, so existing handlers
        # that catch driver failures keep working.
        assert issubclass(KernelUnsupported, DriverError)

    def test_unknown_backend_is_a_driver_error(self):
        with pytest.raises(DriverError, match="unknown backend"):
            run_protocol_on_vectors(
                self.VECTORS, self.QUERY, RunConfig(seed=7), backend="turbo"
            )


# -- wire-format arithmetic ---------------------------------------------------


@given(
    sender=st.text(min_size=1, max_size=12),
    receiver=st.text(min_size=1, max_size=12),
    round_number=st.integers(min_value=1, max_value=10_000),
    vector=st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.integers(min_value=-(10**6), max_value=10**6).map(float),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=100, deadline=None)
def test_byte_model_matches_real_token_encoding(sender, receiver, round_number, vector):
    """The kernel's closed form equals the real message's encoded size."""
    message = token_message(sender, receiver, round_number, list(vector))
    expected = (
        _FIXED
        + len(str(round_number))
        + _TOKEN_LEN
        + _id_len(sender)
        + _id_len(receiver)
        + _vector_bytes(tuple(vector))
    )
    assert message.size_bytes == expected


def test_byte_model_matches_real_result_encoding():
    message = result_message("a", "b", 9, [1.0, 2.5])
    assert message.type is MessageType.RESULT
    expected = (
        _FIXED
        + len(str(9))
        + _RESULT_LEN
        + _id_len("a")
        + _id_len("b")
        + _vector_bytes((1.0, 2.5))
    )
    assert message.size_bytes == expected


def test_byte_model_covers_signed_zero():
    """repr(-0.0) is one byte longer than repr(0.0); the model must track it."""
    plus = token_message("a", "b", 1, [0.0])
    minus = token_message("a", "b", 1, [-0.0])
    assert minus.size_bytes == plus.size_bytes + 1
    assert _vector_bytes((-0.0,)) == _vector_bytes((0.0,)) + 1
