"""Per-(key, counter) keystream reuse: the memo inside ``modes._keystream``.

A broadcast is sealed once and opened by every neighbour; the memo lets
all of those calls share one keystream computation. These tests pin that
the reuse is invisible: memoised bytes equal the ``pure`` oracle, entries
never cross keys or backends, authentication still gates every open, the
memo stays bounded, and a deployment behaves identically without it.
"""

from __future__ import annotations

import struct

import pytest

from repro.crypto import modes
from repro.crypto.aead import AuthenticationError, open_, seal
from repro.crypto.block import get_cipher
from repro.crypto.modes import ctr_decrypt, ctr_encrypt, message_counter
from repro.crypto.stats import STATS
from repro.runtime.cluster import deploy_live
from repro.workloads import SoakWorkload

KEY_A = bytes(range(16))
KEY_B = bytes(range(1, 17))
PAYLOAD = bytes(range(41))


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts from an empty memo and leaves none behind."""
    modes._memo.clear()
    yield
    modes._memo.clear()


def _oracle(key: bytes, counter: int, length: int) -> bytes:
    """The scalar reference keystream: one ``encrypt_block`` per counter block."""
    cipher = get_cipher("speck64/128", key)
    blocks = -(-length // 8)
    ks = b"".join(
        cipher.encrypt_block(struct.pack(">Q", (counter << 16) + i)) for i in range(blocks)
    )
    return ks[:length]


def test_hit_returns_oracle_bytes():
    cipher = get_cipher("speck64/128", KEY_A)
    counter = message_counter(11)
    first = ctr_encrypt(cipher, counter, PAYLOAD, "vector")
    before = STATS.keystream_reused_blocks
    again = ctr_encrypt(cipher, counter, PAYLOAD, "vector")
    assert STATS.keystream_reused_blocks - before == -(-len(PAYLOAD) // 8)
    assert again == first
    oracle_ks = _oracle(KEY_A, counter, len(PAYLOAD))
    assert bytes(a ^ b for a, b in zip(again, PAYLOAD)) == oracle_ks
    assert ctr_decrypt(cipher, counter, again, "vector") == PAYLOAD


def test_keys_with_equal_counter_and_length_never_share_an_entry():
    counter = message_counter(5)
    ct_a = ctr_encrypt(get_cipher("speck64/128", KEY_A), counter, PAYLOAD)
    before = STATS.keystream_reused_blocks
    ct_b = ctr_encrypt(get_cipher("speck64/128", KEY_B), counter, PAYLOAD)
    assert STATS.keystream_reused_blocks == before
    assert ct_a != ct_b
    assert bytes(a ^ b for a, b in zip(ct_b, PAYLOAD)) == _oracle(KEY_B, counter, len(PAYLOAD))


def test_vector_call_after_pure_call_still_runs_the_kernel():
    cipher = get_cipher("speck64/128", KEY_A)
    counter = message_counter(9)
    pure = ctr_encrypt(cipher, counter, PAYLOAD, "pure")
    vector_before = STATS.keystream_vector_blocks
    reused_before = STATS.keystream_reused_blocks
    vector = ctr_encrypt(cipher, counter, PAYLOAD, "vector")
    assert STATS.keystream_vector_blocks > vector_before
    assert STATS.keystream_reused_blocks == reused_before
    assert vector == pure


@pytest.mark.parametrize("position", ["ciphertext", "tag"])
def test_tampered_frame_with_memoised_keystream_fails_authentication(position):
    counter = message_counter(21)
    sealed = seal(KEY_A, counter, PAYLOAD, b"cid")
    assert open_(KEY_A, counter, sealed, b"cid") == PAYLOAD  # keystream memoised
    index = 3 if position == "ciphertext" else len(sealed) - 1
    tampered = bytearray(sealed)
    tampered[index] ^= 0x01
    opens_before = STATS.opens
    blocks_before = STATS.keystream_blocks
    with pytest.raises(AuthenticationError):
        open_(KEY_A, counter, bytes(tampered), b"cid")
    assert STATS.opens == opens_before + 1
    # Verify-then-decrypt: the failed open never asked for a keystream.
    assert STATS.keystream_blocks == blocks_before


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(modes, "KEYSTREAM_MEMO_SIZE", 8)
    cipher = get_cipher("speck64/128", KEY_A)
    for counter in range(40):
        ctr_encrypt(cipher, message_counter(counter), PAYLOAD)
        assert len(modes._memo) <= 8
    # Oldest entries go first: the newest eight counters are the ones kept.
    assert [key[1] for key in modes._memo] == list(range(32, 40))


def _soak_counts() -> tuple[int, int, int]:
    deployed, _metrics = deploy_live(n=100, density=10.0, seed=4, transport="loopback")
    deployed.assign_gradient()
    transport = deployed.network.transport
    sent_before = transport.frames_sent
    events_before = transport.events_executed
    workload = SoakWorkload(deployed, offered_load_fps=150.0, duration_s=1.0, seed=4)
    workload.start()
    deployed.run_for(2.0)
    return (
        len(deployed.bs_agent.delivered),
        transport.frames_sent - sent_before,
        transport.events_executed - events_before,
    )


def test_loopback_soak_identical_without_the_memo(monkeypatch):
    with_memo = _soak_counts()
    assert with_memo[0] > 0
    monkeypatch.setattr(modes, "KEYSTREAM_MEMO_SIZE", 0)
    modes._memo.clear()
    reused_before = STATS.keystream_reused_blocks
    without_memo = _soak_counts()
    assert STATS.keystream_reused_blocks == reused_before
    assert not modes._memo
    assert without_memo == with_memo
