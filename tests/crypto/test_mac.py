"""HMAC-SHA256 against RFC 4231 vectors; CBC-MAC properties."""

import hmac as stdlib_hmac
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.block import get_cipher
from repro.crypto.mac import CbcMac, hmac_sha256, hmac_sha256_parts, mac, verify

# RFC 4231 test cases 1, 2 and 6 (long key).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 131,
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
]


@pytest.mark.parametrize("key,msg,digest", RFC4231)
def test_rfc4231_vectors(key, msg, digest):
    assert hmac_sha256(key, msg).hex() == digest


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=200))
def test_matches_stdlib_hmac(key, msg):
    expected = stdlib_hmac.new(key, msg, hashlib.sha256).digest()
    assert hmac_sha256(key, msg) == expected


@given(st.binary(min_size=16, max_size=16), st.binary(max_size=100))
def test_mac_verify_roundtrip(key, msg):
    assert verify(key, msg, mac(key, msg))


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=1, max_size=100),
       st.integers(min_value=0, max_value=7))
def test_tampered_tag_rejected(key, msg, bit):
    tag = bytearray(mac(key, msg))
    tag[0] ^= 1 << bit
    assert not verify(key, msg, bytes(tag))


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=1, max_size=100))
def test_tampered_message_rejected(key, msg):
    tag = mac(key, msg)
    tampered = bytes([msg[0] ^ 0xFF]) + msg[1:]
    assert not verify(key, tampered, tag)


def test_empty_tag_rejected():
    assert not verify(bytes(16), b"msg", b"")


def test_tag_len_bounds():
    with pytest.raises(ValueError):
        mac(bytes(16), b"m", tag_len=0)
    with pytest.raises(ValueError):
        mac(bytes(16), b"m", tag_len=33)
    assert len(mac(bytes(16), b"m", tag_len=4)) == 4


class TestCbcMac:
    def _mac(self):
        return CbcMac(get_cipher("speck64/128", bytes(range(16))))

    @given(st.binary(max_size=100))
    def test_roundtrip(self, msg):
        m = self._mac()
        assert m.verify(msg, m.tag(msg))

    @given(st.binary(min_size=1, max_size=100))
    def test_tamper_rejected(self, msg):
        m = self._mac()
        tag = m.tag(msg)
        assert not m.verify(msg + b"x", tag)

    def test_length_prefix_blocks_extension(self):
        # Raw CBC-MAC is extension-malleable; the length prefix must make
        # tag(m) different from tag(m || padding-looking-suffix).
        m = self._mac()
        assert m.tag(b"AAAA") != m.tag(b"AAAA" + bytes(8))

    def test_tag_len_bounds(self):
        m = self._mac()
        with pytest.raises(ValueError):
            m.tag(b"x", tag_len=0)
        with pytest.raises(ValueError):
            m.tag(b"x", tag_len=9)

    def test_empty_tag_rejected(self):
        assert not self._mac().verify(b"m", b"")


@given(st.binary(max_size=80), st.lists(st.binary(max_size=40), max_size=4))
@settings(max_examples=50, deadline=None)
def test_midstate_hmac_matches_stdlib(key, parts):
    """The pad-midstate cache changes nothing: still RFC 2104 HMAC."""
    ours = hmac_sha256_parts(key, parts)
    ref = stdlib_hmac.new(key, b"".join(parts), hashlib.sha256).digest()
    assert ours == ref
