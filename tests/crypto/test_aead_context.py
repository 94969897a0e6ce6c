"""The per-key AEAD context: cached state that must never change a byte.

``repro.crypto.aead`` binds everything fixed per ``(key, cipher)`` — the
keyed cipher, the HMAC midstates of ``K_mac`` and the cipher-name MAC
prefix — once, and every seal/open resumes from it. These tests pin
that the cache is invisible:

* parity: ``seal`` and ``open_`` equal the encrypt-then-MAC composition
  rebuilt from :func:`hmac_sha256_parts` and the scalar CTR keystream,
  on either keystream backend;
* a cached context still authenticates every reception: a tampered DATA
  frame is refused by every receiver holding the key;
* a revoked key is refused by the key ring before any context is used;
* contexts never cross keys or ciphers.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import aead
from repro.crypto.aead import (
    AeadConfig,
    AuthenticationError,
    _key_context,
    open_,
    seal,
)
from repro.crypto.block import available_ciphers, get_cipher
from repro.crypto.kdf import ENCRYPT_USAGE, MAC_USAGE, derive_usage_key
from repro.crypto.mac import hmac_sha256_parts
from repro.protocol import messages
from repro.protocol.forwarding import hop_key
from repro.protocol.setup import deploy
from tests.conftest import run_for

KEY_A = bytes(range(16))
KEY_B = bytes(range(1, 17))

ciphers = st.sampled_from(available_ciphers())
tag_lens = st.integers(min_value=1, max_value=32)
counters = st.integers(min_value=0, max_value=2**48 - 1)
keys = st.binary(min_size=16, max_size=16)


def _reference_seal(
    key: bytes, counter: int, plaintext: bytes, ad: bytes, cipher: str, tag_len: int
) -> bytes:
    """Encrypt-then-MAC from the primitives, sharing no cached state."""
    keyed = get_cipher(cipher, derive_usage_key(key, ENCRYPT_USAGE))
    blocks = -(-len(plaintext) // keyed.block_size)
    keystream = b"".join(
        keyed.encrypt_block(struct.pack(">Q", (counter << 16) + i)) for i in range(blocks)
    )
    ct = bytes(p ^ k for p, k in zip(plaintext, keystream))
    name = cipher.encode("ascii")
    header = (
        bytes([len(name)]) + name + len(ad).to_bytes(4, "big") + ad + counter.to_bytes(8, "big")
    )
    k_mac = derive_usage_key(key, MAC_USAGE)
    tag = hmac_sha256_parts(k_mac, (header, ct))
    assert tag == hmac.new(k_mac, header + ct, hashlib.sha256).digest()
    return ct + tag[:tag_len]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(keys, counters, st.binary(max_size=90), st.binary(max_size=24), ciphers, tag_lens,
       st.sampled_from(("pure", "vector")))
def test_seal_and_open_match_the_reference(
    keystream_backend, key, counter, plaintext, ad, cipher, tag_len, backend
):
    keystream_backend(backend)
    config = AeadConfig(cipher=cipher, tag_len=tag_len)
    expected = _reference_seal(key, counter, plaintext, ad, cipher, tag_len)
    assert seal(key, counter, plaintext, ad, config) == expected
    aead._opened.clear()  # open from the bytes, not from the entry the seal primed
    assert open_(key, counter, expected, ad, config) == plaintext
    assert open_(key, counter, memoryview(expected), ad, config) == plaintext


def test_contexts_never_cross_keys_or_ciphers():
    a = _key_context(KEY_A, "speck64/128")
    assert _key_context(KEY_A, "speck64/128") is a
    b = _key_context(KEY_B, "speck64/128")
    x = _key_context(KEY_A, "xtea")
    assert a.cipher is not b.cipher and a.cipher is not x.cipher
    assert a.inner.digest() != b.inner.digest()
    assert a.prefix == b"\x0bspeck64/128" and x.prefix == b"\x04xtea"
    # Equal counters and plaintexts still give unrelated frames.
    frames = {
        seal(KEY_A, 7, b"payload"),
        seal(KEY_B, 7, b"payload"),
        seal(KEY_A, 7, b"payload", config=AeadConfig(cipher="xtea")),
    }
    assert len(frames) == 3
    with pytest.raises(AuthenticationError):
        open_(KEY_B, 7, seal(KEY_A, 7, b"payload"))


def test_an_alias_binds_its_own_name():
    # "speck" selects the same cipher as "speck64/128" but is MACed as
    # written, so a tag under one name never verifies under the other.
    alias = _key_context(KEY_A, "speck")
    assert alias.prefix == b"\x05speck"
    sealed = seal(KEY_A, 3, b"payload", config=AeadConfig(cipher="speck"))
    assert sealed[:-8] == seal(KEY_A, 3, b"payload")[:-8]
    with pytest.raises(AuthenticationError):
        open_(KEY_A, 3, sealed)


@pytest.fixture(scope="module")
def delivered_frame():
    """A deployment, one DATA frame it broadcast, and that frame's header."""
    deployed, _ = deploy(60, 10.0, seed=3)
    frames: list[bytes] = []
    deployed.network.radio.monitors.append(lambda _t, _s, frame: frames.append(frame))
    source = next(nid for nid in deployed.gradient.routable() if deployed.gradient.level(nid) > 1)
    deployed.agents[source].send_reading(b"reading")
    run_for(deployed, 2.0)
    frame = next(f for f in frames if f[0] == messages.DATA)
    header, _ = messages.decode_data_view(frame)
    return deployed, frame, header


def _holders(deployed, cid):
    return [a for a in deployed.agents.values() if a.state.keyring.has(cid)]


def _assert_context_cached(agent, header, config):
    key = hop_key(agent.state.keyring.get(header.cid).material, header.sender)
    hits = _key_context.cache_info().hits
    _key_context(key, config.aead.cipher)
    assert _key_context.cache_info().hits == hits + 1


#: First ciphertext byte (after the type byte and the 14-byte clear
#: header), first tag byte, last tag byte.
@pytest.mark.parametrize("position", [15, -8, -1])
def test_tampered_frame_fails_at_every_holder_with_a_cached_context(delivered_frame, position):
    deployed, frame, header = delivered_frame
    holders = _holders(deployed, header.cid)
    assert len(holders) > 1
    _assert_context_cached(holders[0], header, deployed.config)
    tampered = bytearray(frame)
    tampered[position] ^= 0x01
    counters = deployed.network.trace.counters
    before = counters.get("drop.data_bad_auth", 0)
    for agent in holders:
        agent.on_frame(header.sender, bytes(tampered))
    assert counters.get("drop.data_bad_auth", 0) - before == len(holders)


def test_revoked_key_is_refused_though_its_context_is_cached(delivered_frame):
    deployed, frame, header = delivered_frame
    agent = _holders(deployed, header.cid)[-1]
    _assert_context_cached(agent, header, deployed.config)
    counters = deployed.network.trace.counters
    unknown = counters.get("drop.data_unknown_cluster", 0)
    bad_auth = counters.get("drop.data_bad_auth", 0)
    agent.state.keyring.remove(header.cid)
    agent.on_frame(header.sender, frame)
    assert counters.get("drop.data_unknown_cluster", 0) == unknown + 1
    assert counters.get("drop.data_bad_auth", 0) == bad_auth
