"""Fuzz tests: hostile bytes must raise typed errors, never crash oddly."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.serialization import SerializationError, result_from_dict
from repro.network.message import Message, MessageError


@given(raw=st.binary(max_size=512))
@settings(max_examples=150, deadline=None)
def test_message_decode_never_crashes(raw: bytes):
    try:
        Message.decode(raw)
    except MessageError:
        pass  # the only acceptable failure mode


@given(
    body=st.dictionaries(
        st.sampled_from(["sender", "receiver", "round", "type", "payload", "junk"]),
        st.one_of(st.text(max_size=8), st.integers(), st.none()),
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_structured_but_wrong_json_rejected(body):
    import json

    raw = json.dumps(body).encode()
    try:
        Message.decode(raw)
    except MessageError:
        pass


@given(
    document=st.dictionaries(
        st.text(max_size=12), st.one_of(st.integers(), st.text(max_size=6)), max_size=5
    )
)
@settings(max_examples=80, deadline=None)
def test_trace_loader_rejects_garbage_documents(document):
    with pytest.raises(SerializationError):
        result_from_dict(document)
