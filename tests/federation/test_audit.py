"""The audit log: a read-only sequence stored by column, read back exactly."""

import dataclasses
import gc
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.audit import AuditEntry, AuditLog
from repro.federation.outcomes import QueryOutcome

ISSUERS = ("alice", "bob", "carol")
MEMBERS = (("acme", "bravo", "corex"), ("acme", "bravo", "corex", "delta"))
STATEMENT = "SELECT TOP 2 value FROM data"
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
    st.integers(min_value=-2, max_value=2),
    st.floats(allow_nan=True, allow_infinity=True),
)
LOPS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, float("nan")]), st.floats(0, 1))
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["executed", "new hit", "repeat", "fresh outcome", "twin"]),
        st.sampled_from(ISSUERS),
        st.sampled_from(MEMBERS),
        st.lists(NUMBERS, max_size=3).map(tuple),
        LOPS,
        st.integers(min_value=0, max_value=1_000),
    ),
    max_size=40,
)


def _twin(value):
    """Equal to ``value`` (NaN aside) but not the same number."""
    if isinstance(value, int):
        return float(value)
    if value != value:
        return float("nan")
    if value == 0:
        return -value
    return int(value) if value.is_integer() else value


def _same(a, b) -> bool:
    """Bit for bit: same type, same ``repr``, same sign of every zero."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return (
            type(b) is float
            and repr(a) == repr(b)
            and math.copysign(1.0, a) == math.copysign(1.0, b)
        )
    return type(a) is type(b) and a == b


def _fields(entry: AuditEntry) -> tuple:
    """Every field but ``entry_id``, as stored (no copies)."""
    return tuple(getattr(entry, f.name) for f in dataclasses.fields(entry))[1:]


def _hit(values, statement=STATEMENT) -> QueryOutcome:
    return QueryOutcome(
        statement=statement, values=values, protocol="topk", rounds=0, messages=0,
        cached=True,
    )


@settings(max_examples=200, deadline=None)
@given(steps=STEPS)
def test_the_log_reads_back_what_a_plain_list_would_hold(steps):
    # Hits re-serve a shared outcome ("repeat"), a fresh outcome around the
    # same values (the DP free re-serve), or equal-but-distinct values
    # ("twin": -0.0 for 0.0, 1.0 for 1, another NaN); none may be merged
    # into a row that reads back different bits.
    log, model, shared = AuditLog(), [], []
    for kind, issuer, members, values, lop, pick in steps:
        if kind in ("repeat", "fresh outcome", "twin") and shared:
            base = shared[pick % len(shared)]
            lop = None
            if kind == "repeat":
                outcome = base
            elif kind == "fresh outcome":
                text = base.statement[:-1] + base.statement[-1:]
                outcome = _hit(base.values, statement=text)
            else:
                outcome = _hit(tuple(map(_twin, base.values)))
        elif kind == "executed":
            outcome = QueryOutcome(
                statement=STATEMENT, values=values, protocol="topk", rounds=4,
                messages=4 * len(members),
            )
        else:
            outcome = _hit(values)
            shared.append(outcome)
        log.record(issuer, members, outcome, lop)
        model.append(
            (
                issuer, outcome.statement, outcome.protocol, members, outcome.rounds,
                outcome.messages, outcome.values, lop, outcome.cached,
            )
        )
    entries = list(log)
    assert len(log) == len(entries) == len(model)
    for entry, expected in zip(entries, model):
        assert _same(_fields(entry), expected), (entry, expected)
    assert all(a.entry_id < b.entry_id for a, b in zip(entries, entries[1:]))
    assert [log[i] for i in range(len(log))] == entries
    assert [log[i - len(log)] for i in range(len(log))] == entries
    assert log[1:-1] == tuple(entries[1:-1]) and log[::2] == tuple(entries[::2])


class TestReadOnly:
    def test_the_old_mutation_paths_raise(self):
        log = AuditLog()
        log.record("alice", MEMBERS[0], _hit((1.0,)))
        entry = log[0]
        with pytest.raises(AttributeError):
            log.entries.clear()
        with pytest.raises(AttributeError):
            log.entries = []
        with pytest.raises(TypeError):
            log[0] = entry
        with pytest.raises(TypeError):
            del log[0]
        for name in ("append", "extend", "insert", "clear", "pop", "remove"):
            assert not hasattr(log, name), name
        snapshot = log[:]
        with pytest.raises(TypeError):
            snapshot[0] = entry
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.issuer = "mallory"
        assert len(log) == 1 and log[0] == entry and log[0].issuer == "alice"

    def test_an_index_past_the_end_raises(self):
        log = AuditLog()
        with pytest.raises(IndexError):
            log[0]
        assert log[:] == () and list(log) == []


def test_an_executed_entry_retains_no_more_than_a_slotted_object():
    # An execution appends a row of its own (a 9-tuple and its list slot)
    # and two array slots: ~137 B.  A slotted AuditEntry with its entry_id
    # int and list slot was ~148 B; interning hits must not tax misses.
    n = 5_000
    outcomes = [
        QueryOutcome(
            statement=STATEMENT, values=(float(i), 1.0), protocol="topk", rounds=8,
            messages=96,
        )
        for i in range(n)
    ]
    lops = [i / n for i in range(n)]
    log = AuditLog()
    gc.collect()
    tracemalloc.start()
    try:
        for outcome, lop in zip(outcomes, lops):
            log.record("alice", MEMBERS[0], outcome, lop)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained / n <= 160, f"{retained / n:.1f} B per executed entry"
    assert [e.average_lop for e in log] == lops
