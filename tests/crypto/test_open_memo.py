"""The open memo in ``repro.crypto.aead``: one verified open per broadcast.

A broadcast is sealed once and opened by every neighbour holding the
key; the memo lets all of those opens share one HMAC and one decryption
while each receiver still compares its own received tag. These tests
pin that the sharing is invisible and safe: a hit returns the ``pure``
oracle's plaintext and counts what a recomputation would, any change to
a MAC input or the tag is refused, forged traffic cannot touch the
memo, backends never share an entry, the memo stays bounded, and a
deployment behaves identically without it or after a run that warmed it.
It is the only memo of verified opens: DATA hop opens reach it too, and
only one loopback fan-out shares an open above it
(:class:`~repro.protocol.agent.DataReception` and
:class:`~repro.protocol.agent.LinkinfoReception`).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import aead
from repro.crypto.aead import AeadConfig, AuthenticationError, open_, seal
from repro.crypto.block import get_cipher
from repro.crypto.kdf import ENCRYPT_USAGE, derive_usage_key
from repro.crypto.modes import message_counter
from repro.crypto.stats import STATS
from repro.protocol import setup
from repro.runtime.cluster import deploy_live
from repro.workloads import SoakWorkload

KEY_A = bytes(range(16))
KEY_B = bytes(range(1, 17))
PAYLOAD = bytes(range(41))
AD = b"cid"
TAG_LEN = AeadConfig().tag_len


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts from an empty memo and leaves none behind."""
    aead._opened.clear()
    yield
    aead._opened.clear()


def _oracle_keystream(key: bytes, counter: int, length: int) -> bytes:
    """The scalar reference keystream: one ``encrypt_block`` per counter block."""
    keyed = get_cipher("speck64/128", derive_usage_key(key, ENCRYPT_USAGE))
    blocks = -(-length // 8)
    ks = b"".join(
        keyed.encrypt_block(struct.pack(">Q", (counter << 16) + i)) for i in range(blocks)
    )
    return ks[:length]


def _stats_delta(call) -> dict[str, int]:
    before = STATS.snapshot()
    call()
    after = STATS.snapshot()
    return {name: after[name] - before[name] for name in after}


def test_hit_returns_the_pure_oracle_plaintext(keystream_backend):
    keystream_backend("vector")
    counter = message_counter(11)
    sealed = seal(KEY_A, counter, PAYLOAD, AD)
    reused_before = STATS.keystream_reused_blocks
    plaintext = open_(KEY_A, counter, sealed, AD)
    assert STATS.keystream_reused_blocks - reused_before == -(-len(PAYLOAD) // 8)  # a hit
    ct = sealed[:-TAG_LEN]
    oracle = bytes(a ^ b for a, b in zip(ct, _oracle_keystream(KEY_A, counter, len(ct))))
    assert plaintext == oracle == PAYLOAD


@pytest.mark.parametrize("backend", [None, "pure", "vector"])
@pytest.mark.parametrize("cipher_name", ["speck64/128", "rc5-32/12/16"])
@pytest.mark.parametrize("length", [41, 200])
def test_hit_counts_what_its_miss_counted(backend, cipher_name, length, keystream_backend):
    # The hit path reads the block count and kernel choice stored with the
    # entry; apart from keystream_reused_blocks, STATS must not tell a hit
    # from a miss. ``None`` leaves the process default in place.
    if backend is not None:
        keystream_backend(backend)
    config = AeadConfig(cipher=cipher_name)
    counter = message_counter(17)
    sealed = seal(KEY_A, counter, bytes(length), AD, config)
    aead._opened.clear()
    miss = _stats_delta(lambda: open_(KEY_A, counter, sealed, AD, config))
    hit = _stats_delta(lambda: open_(KEY_A, counter, sealed, AD, config))
    blocks = -(-length // 8)
    assert miss["keystream_blocks"] == blocks
    assert miss["keystream_reused_blocks"] == 0
    assert hit.pop("keystream_reused_blocks") == blocks
    del miss["keystream_reused_blocks"]
    assert hit == miss


def _primed(counter: int, payload: bytes) -> bytes:
    return seal(KEY_A, counter, payload, AD)


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index % len(flipped)] ^= 0x01
    return bytes(flipped)


def _assert_refused(counter: int, sealed: bytes, ad: bytes) -> None:
    """The open raises, returns nothing, decrypts nothing and inserts nothing."""
    memo = list(aead._opened.items())
    blocks_before = STATS.keystream_blocks
    returned = []
    with pytest.raises(AuthenticationError):
        returned.append(open_(KEY_A, counter, sealed, ad))
    assert not returned
    assert STATS.keystream_blocks == blocks_before
    assert list(aead._opened.items()) == memo


@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    counter=st.integers(min_value=0, max_value=2**48 - 1),
    payload=st.binary(min_size=1, max_size=90),
    part=st.sampled_from(["ciphertext", "associated data", "tag", "counter"]),
    index=st.integers(min_value=0, max_value=1 << 16),
)
def test_any_change_to_a_primed_frame_is_refused(counter, payload, part, index):
    sealed = _primed(counter, payload)
    ct, tag = sealed[:-TAG_LEN], sealed[-TAG_LEN:]
    assert open_(KEY_A, counter, sealed, AD) == payload  # the entry is primed
    if part == "ciphertext":
        _assert_refused(counter, _flip(ct, index) + tag, AD)
    elif part == "associated data":
        _assert_refused(counter, sealed, _flip(AD, index))
    elif part == "tag":
        _assert_refused(counter, ct + _flip(tag, index), AD)
    else:
        other = (counter + 1 + index) % (2**48)
        _assert_refused(other, sealed, AD)


def test_a_receiver_with_a_different_key_raises_on_a_primed_frame():
    counter = message_counter(5)
    sealed = _primed(counter, PAYLOAD)
    with pytest.raises(AuthenticationError):
        open_(KEY_B, counter, sealed, AD)
    assert open_(KEY_A, counter, sealed, AD) == PAYLOAD


def test_forged_opens_leave_the_memo_unchanged():
    genuine = [_primed(message_counter(c), PAYLOAD) for c in range(aead.OPEN_MEMO_SIZE)]
    memo = list(aead._opened.items())
    assert len(memo) == aead.OPEN_MEMO_SIZE
    for i in range(1000):
        counter = message_counter(i % aead.OPEN_MEMO_SIZE)
        frame = _flip(genuine[counter], i) if i % 2 else bytes(len(genuine[counter]))
        with pytest.raises(AuthenticationError):
            open_(KEY_A, counter, frame, AD)
    assert list(aead._opened.items()) == memo


def test_pure_and_vector_never_share_an_entry(keystream_backend):
    # The switch flipped between a seal and an open keys another entry.
    counter = message_counter(9)
    keystream_backend("pure")
    sealed = seal(KEY_A, counter, PAYLOAD, AD)
    keystream_backend("vector")
    vector = _stats_delta(lambda: open_(KEY_A, counter, sealed, AD))
    assert vector["keystream_reused_blocks"] == 0
    assert vector["keystream_vector_blocks"] == vector["keystream_blocks"] > 0
    keystream_backend("pure")
    pure = _stats_delta(lambda: open_(KEY_A, counter, sealed, AD))
    assert pure["keystream_reused_blocks"] == pure["keystream_blocks"]
    assert pure["keystream_vector_blocks"] == 0
    assert {key[2] for key in aead._opened} == {"pure", "vector"}


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(aead, "OPEN_MEMO_SIZE", 8)
    for counter in range(40):
        _primed(message_counter(counter), PAYLOAD)
        assert len(aead._opened) <= 8
    # Oldest entries go first: the newest eight counters are the ones kept.
    assert [key[3] for key in aead._opened] == list(range(32, 40))


def test_a_re_primed_entry_becomes_the_newest(monkeypatch):
    # Whether an entry is held depends only on the inserts since it was
    # last made, not on a stale copy an earlier run left behind.
    monkeypatch.setattr(aead, "OPEN_MEMO_SIZE", 8)
    for counter in range(8):
        _primed(message_counter(counter), PAYLOAD)
    _primed(message_counter(0), PAYLOAD)
    for counter in range(8, 15):
        _primed(message_counter(counter), PAYLOAD)
    assert [key[3] for key in aead._opened] == [0, *range(8, 15)]


def _soak(shared: bool = True) -> tuple:
    """Delivered readings, frames sent, events run and STATS growth of a seeded soak.

    ``shared=False`` takes away the loopback fan-out's shared reception
    passes from the start of key setup, so every receiver of a frame
    opens it through ``open_``.
    """
    before = STATS.snapshot()
    with pytest.MonkeyPatch.context() as patches:
        if not shared:
            provision = setup.provision

            def provision_unshared(network, config=None):
                deployed = provision(network, config)
                network.radio.receptions.clear()
                return deployed

            patches.setattr(setup, "provision", provision_unshared)
        deployed, _metrics = deploy_live(n=100, density=10.0, seed=4, transport="loopback")
    assert bool(deployed.network.radio.receptions) == shared
    deployed.assign_gradient()
    transport = deployed.network.transport
    trace = deployed.network.trace
    sent_before = trace["net.frames_sent"]
    events_before = transport.events_executed
    workload = SoakWorkload(deployed, offered_load_fps=150.0, duration_s=1.0, seed=4)
    workload.start()
    deployed.run_for(2.0)
    after = STATS.snapshot()
    return (
        [(r.time, r.source, r.data) for r in deployed.bs_agent.delivered],
        trace["net.frames_sent"] - sent_before,
        transport.events_executed - events_before,
        {name: after[name] - before[name] for name in after},
    )


def test_loopback_soak_identical_without_the_memo(monkeypatch):
    with_memo = _soak()
    assert with_memo[0]
    assert with_memo[3]["keystream_reused_blocks"] > 0
    monkeypatch.setattr(aead, "OPEN_MEMO_SIZE", 0)
    aead._opened.clear()
    # Without the shared pass too, so no open is served by another.
    without_memo = _soak(shared=False)
    assert not aead._opened
    assert without_memo[3].pop("keystream_reused_blocks") == 0
    del with_memo[3]["keystream_reused_blocks"]
    assert without_memo == with_memo


def test_a_warm_memo_does_not_change_a_rerun():
    # The memo is process-global; a run must not depend on what ran before it.
    first = _soak()
    assert len(aead._opened) == aead.OPEN_MEMO_SIZE
    assert _soak() == first
