"""Unit and property tests for repro.network.crypto.

The round trips run the whole cipher, ``_keystream`` and ``_xor`` included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.crypto import ChannelKey, CryptoError, Keyring


class TestChannelKey:
    def test_short_key_rejected(self):
        with pytest.raises(CryptoError, match="128 bits"):
            ChannelKey(b"short")

    def test_round_trip(self):
        key = ChannelKey.generate()
        blob = key.encrypt(b"hello world")
        assert key.decrypt(blob) == b"hello world"

    def test_ciphertext_differs_from_plaintext(self):
        key = ChannelKey.generate()
        plaintext = b"the max value is 9999"
        assert plaintext not in key.encrypt(plaintext)

    def test_nonce_makes_encryption_non_deterministic(self):
        key = ChannelKey.generate()
        assert key.encrypt(b"x") != key.encrypt(b"x")

    def test_tampering_detected(self):
        key = ChannelKey.generate()
        blob = bytearray(key.encrypt(b"payload"))
        blob[20] ^= 0x01
        with pytest.raises(CryptoError, match="authentication"):
            key.decrypt(bytes(blob))

    def test_wrong_key_rejected(self):
        blob = ChannelKey.generate().encrypt(b"payload")
        with pytest.raises(CryptoError, match="authentication"):
            ChannelKey.generate().decrypt(blob)

    def test_truncated_blob_rejected(self):
        with pytest.raises(CryptoError, match="too short"):
            ChannelKey.generate().decrypt(b"tiny")

    def test_empty_plaintext(self):
        key = ChannelKey.generate()
        assert key.decrypt(key.encrypt(b"")) == b""

    @given(st.binary(max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip(self, plaintext: bytes):
        key = ChannelKey(b"k" * 32)
        assert key.decrypt(key.encrypt(plaintext)) == plaintext


class TestKeyring:
    def test_same_key_for_unordered_pair(self):
        ring = Keyring()
        assert ring.key_for("a", "b") is ring.key_for("b", "a")

    def test_distinct_links_get_distinct_keys(self):
        ring = Keyring()
        assert ring.key_for("a", "b") is not ring.key_for("a", "c")

    def test_self_channel_rejected(self):
        with pytest.raises(CryptoError, match="two distinct"):
            Keyring().key_for("a", "a")

    def test_seal_open_round_trip(self):
        ring = Keyring()
        blob = ring.seal("a", "b", b"token")
        assert ring.open("a", "b", blob) == b"token"

    def test_open_with_wrong_link_fails(self):
        ring = Keyring()
        blob = ring.seal("a", "b", b"token")
        with pytest.raises(CryptoError):
            ring.open("a", "c", blob)
