"""Encrypt-then-MAC composition: the protocol's sealing primitive."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aead import AeadConfig, AuthenticationError, open_, seal

KEY = bytes(range(16))
keys = st.binary(min_size=16, max_size=16)


@given(keys, st.integers(min_value=0, max_value=2**40), st.binary(max_size=200),
       st.binary(max_size=32))
def test_roundtrip(key, counter, plaintext, ad):
    sealed = seal(key, counter, plaintext, ad)
    assert open_(key, counter, sealed, ad) == plaintext


@given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=100))
def test_bit_flip_anywhere_rejected(plaintext, pos):
    sealed = bytearray(seal(KEY, 1, plaintext))
    sealed[pos % len(sealed)] ^= 0x01
    with pytest.raises(AuthenticationError):
        open_(KEY, 1, bytes(sealed), b"")


def test_wrong_key_rejected():
    sealed = seal(KEY, 1, b"secret")
    with pytest.raises(AuthenticationError):
        open_(bytes(16), 1, sealed)


def test_wrong_counter_rejected():
    sealed = seal(KEY, 1, b"secret")
    with pytest.raises(AuthenticationError):
        open_(KEY, 2, sealed)


def test_wrong_ad_rejected():
    sealed = seal(KEY, 1, b"secret", b"header-A")
    with pytest.raises(AuthenticationError):
        open_(KEY, 1, sealed, b"header-B")


def test_truncated_rejected():
    sealed = seal(KEY, 1, b"secret")
    with pytest.raises(AuthenticationError):
        open_(KEY, 1, sealed[: len(sealed) // 2])
    with pytest.raises(AuthenticationError):
        open_(KEY, 1, b"")


def test_ciphertext_is_payload_plus_tag():
    config = AeadConfig(tag_len=8)
    for n in (0, 1, 13, 64):
        assert len(seal(KEY, 0, bytes(n), config=config)) == n + 8


def test_semantic_security_via_counters():
    # Same plaintext under different counters -> different ciphertexts
    # (the reason the protocol maintains shared counters at all).
    assert seal(KEY, 1, b"same")[:-8] != seal(KEY, 2, b"same")[:-8]


def test_ad_is_not_encrypted_but_bound():
    sealed_a = seal(KEY, 1, b"data", b"AD1")
    sealed_b = seal(KEY, 1, b"data", b"AD2")
    # Same plaintext/counter: ciphertext bytes match, tags differ.
    assert sealed_a[:-8] == sealed_b[:-8]
    assert sealed_a[-8:] != sealed_b[-8:]


def test_both_ciphers_interoperate_with_themselves_only():
    speck = AeadConfig(cipher="speck64/128")
    xtea = AeadConfig(cipher="xtea")
    sealed = seal(KEY, 1, b"payload", config=speck)
    assert open_(KEY, 1, sealed, config=speck) == b"payload"
    with pytest.raises(AuthenticationError):
        open_(KEY, 1, sealed, config=xtea)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"tag_len": 0}, "tag_len"),
        ({"tag_len": 33}, "tag_len"),
        ({"tag_len": -1}, "tag_len"),
        ({"cipher": "aes"}, "unknown cipher"),
    ],
)
def test_invalid_settings_fail_at_construction(kwargs, match):
    with pytest.raises(ValueError, match=match):
        AeadConfig(**kwargs)


@pytest.mark.parametrize("cipher", ["speck64/128", "speck", "xtea", "rc5", "rc5-32/12/16"])
@pytest.mark.parametrize("tag_len", [1, 32])
def test_every_registered_name_and_tag_bound_is_accepted(cipher, tag_len, keystream_backend):
    keystream_backend("pure")
    config = AeadConfig(cipher=cipher, tag_len=tag_len)
    sealed = seal(KEY, 1, b"payload", config=config)
    assert len(sealed) == len(b"payload") + tag_len
    assert open_(KEY, 1, sealed, config=config) == b"payload"
