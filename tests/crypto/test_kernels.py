"""Batched keystream kernels: parity with the scalar oracle.

The scalar ciphers are validated against published vectors; these tests
pin the batched kernels (both the bignum-lane and the numpy paths)
byte-identical to them across random keys, counter bases and batch
sizes — including the counter-segment edges where the lane packing's
fast broadcast path does not apply.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import kernels
from repro.crypto.aead import AeadConfig, open_, seal
from repro.crypto.block import get_cipher
from repro.crypto.kernels import (
    BACKENDS,
    LANES_MAX_BLOCKS,
    active_backend,
    get_kernel,
    has_kernel,
    keystream,
    set_backend,
    use_vector,
)
from repro.crypto.modes import MAX_COUNTER, ctr_encrypt
from repro.crypto.stats import STATS

np = pytest.importorskip("numpy")

CIPHERS = ("speck64/128", "xtea", "rc5-32/12/16")

#: Counter bases that stress the lane packing: zero, a typical message
#: counter segment, a low-word rollover (the generic pack path), and the
#: top of the 64-bit counter space.
EDGE_BASES = (
    0,
    12345 << 16,
    (1 << 32) - 3,
    ((1 << 48) - 1) << 16,
    (1 << 64) - 300,
)


def _scalar(cipher, base: int, n: int) -> bytes:
    """The oracle: one scalar encrypt_block per big-endian counter."""
    return b"".join(
        cipher.encrypt_block(struct.pack(">Q", base + i)) for i in range(n)
    )


# -- parity with the scalar oracle -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    base=st.integers(min_value=0, max_value=(1 << 64) - 1),
    n=st.integers(min_value=1, max_value=2 * LANES_MAX_BLOCKS + 5),
)
@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_keystream_matches_scalar_oracle(cipher_name, key, base, n):
    """Property: kernel keystream == scalar oracle, any key/base/length."""
    n = min(n, (1 << 64) - base)  # keep base + n within the counter space
    cipher = get_cipher(cipher_name, key)
    assert keystream(cipher, base, n) == _scalar(cipher, base, n)


@pytest.mark.parametrize("cipher_name", CIPHERS)
@pytest.mark.parametrize("base", EDGE_BASES)
def test_keystream_edge_bases(cipher_name, base):
    """Both small (lane) and large (numpy) batches at packing edge cases."""
    cipher = get_cipher(cipher_name, bytes(range(16)))
    kernel = get_kernel(cipher)
    for n in (1, 3, LANES_MAX_BLOCKS, LANES_MAX_BLOCKS + 1, 150):
        if base + n > 1 << 64:
            continue
        assert kernel.keystream(base, n) == _scalar(cipher, base, n)


@pytest.mark.parametrize("cipher_name", ("speck64/128", "xtea"))
def test_lane_and_numpy_paths_agree(cipher_name):
    """The two vector implementations agree with each other directly."""
    cipher = get_cipher(cipher_name, bytes(range(16)))
    kernel = get_kernel(cipher)
    for n in (1, 7, 64):
        blocks = np.arange(n, dtype=np.uint64) + np.uint64(99 << 16)
        assert kernel.lane_keystream(99 << 16, n) == kernel.encrypt_blocks(blocks)


def test_segment_boundary_spot_checks():
    """A full 2**16-block message: vector output slices match the oracle
    at the first, a middle and the last block of the counter segment."""
    cipher = get_cipher("speck64/128", bytes(range(16)))
    counter = (1 << 48) - 1  # the very last message counter
    base = counter << 16
    n = 1 << 16
    out = kernels.keystream(cipher, base, n)
    assert len(out) == 8 * n
    for i in (0, 1, n // 2, n - 2, n - 1):
        want = cipher.encrypt_block(struct.pack(">Q", base + i))
        assert out[8 * i : 8 * i + 8] == want, f"block {i}"


@pytest.mark.parametrize(
    "cipher_name,key_hex,plain_hex,cipher_hex",
    [
        # Speck64/128 (Beaulieu et al.), XTEA (widely published), RC5
        # (Rivest 1994) — the same vectors the scalar cipher tests pin.
        (
            "speck64/128",
            "1b1a1918131211100b0a090803020100",
            "3b7265747475432d",
            "8c6fa548454e028b",
        ),
        (
            "xtea",
            "000102030405060708090a0b0c0d0e0f",
            "4142434445464748",
            "497df3d072612cb5",
        ),
        (
            "rc5-32/12/16",
            "00000000000000000000000000000000",
            "0000000000000000",
            "21a5dbee154b8f6d",
        ),
    ],
)
def test_published_vectors_through_kernels(cipher_name, key_hex, plain_hex, cipher_hex):
    """The published single-block vectors, driven through the batched path
    by using the plaintext's integer value as the counter base."""
    cipher = get_cipher(cipher_name, bytes.fromhex(key_hex))
    kernel = get_kernel(cipher)
    base = int(plain_hex, 16)
    assert kernel.keystream(base, 1).hex() == cipher_hex
    blocks = np.asarray([base], dtype=np.uint64)
    assert kernel.encrypt_blocks(blocks).hex() == cipher_hex


# -- lane batches of sequential message counters ------------------------------

LANE_CIPHERS = ("speck64/128", "xtea")

#: First message counters: anywhere, or with the low 16 bits just short
#: of the segment end, so a batch crosses into the next high counter
#: word and takes the generic packing path.
first_counters = st.one_of(
    st.integers(0, MAX_COUNTER - 200),
    st.integers(0, (MAX_COUNTER >> 16) - 2).flatmap(
        lambda hi: st.integers(0xFFFF - LANES_MAX_BLOCKS, 0xFFFF).map(lambda lo: (hi << 16) | lo)
    ),
)

#: (key index, blocks, whether the counter follows the key's last one).
stream_steps = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, LANES_MAX_BLOCKS), st.booleans()),
    min_size=1,
    max_size=40,
)


def _walk(keys: list[bytes], firsts: list[int], steps, jumps):
    """Yield ``(key index, counter, n)``: sequential runs per key, interleaved."""
    counters = list(firsts)
    for (index, n, sequential), jump in zip(steps, jumps):
        index %= len(keys)
        if sequential:
            counters[index] = min(counters[index] + 1, MAX_COUNTER - 1)
        else:
            counters[index] = jump
        yield index, counters[index], n


def _assert_one_batch(kernel) -> None:
    """A kernel holds no batch, or one that fits one lane pass."""
    batch = kernel._batch
    if batch is not None:
        first, depth, width, data = batch
        assert depth >= 2 and depth * width <= LANES_MAX_BLOCKS
        assert len(data) == 8 * depth * width


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=3, unique=True),
    firsts=st.lists(first_counters, min_size=3, max_size=3),
    steps=stream_steps,
    jumps=st.lists(first_counters, min_size=40, max_size=40),
)
@pytest.mark.parametrize("cipher_name", LANE_CIPHERS)
def test_lane_batches_match_per_counter_keystreams(cipher_name, keys, firsts, steps, jumps):
    """Property: a message keystream served from (or starting) a lane
    batch equals the per-counter lane keystream, for sequential and
    interleaved keys, and a kernel never keeps more than one batch."""
    ciphers = [get_cipher(cipher_name, key) for key in keys]
    for index, counter, n in _walk(keys, firsts, steps, jumps):
        cipher = ciphers[index]
        kernel = get_kernel(cipher)
        got = kernels.message_keystream(cipher, counter, n)
        assert got == kernel.lane_keystream(counter << 16, n)
        _assert_one_batch(kernel)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    key=st.binary(min_size=16, max_size=16),
    first=first_counters,
    lengths=st.lists(st.integers(1, 8 * LANES_MAX_BLOCKS), min_size=1, max_size=30),
)
@pytest.mark.parametrize("cipher_name", LANE_CIPHERS)
def test_batched_ctr_counts_what_per_call_computation_counts(
    cipher_name, key, first, lengths, keystream_backend
):
    """Property: CTR over a sequential stream gives the pure oracle's
    bytes and counts, per call, the blocks a lone keystream would."""
    cipher = get_cipher(cipher_name, key)
    before = STATS.snapshot()
    blocks = 0
    for offset, length in enumerate(lengths):
        counter = min(first + offset, MAX_COUNTER - 1)
        payload = bytes(length)
        keystream_backend("vector")
        vector = ctr_encrypt(cipher, counter, payload)
        keystream_backend("pure")
        assert vector == ctr_encrypt(cipher, counter, payload)
        blocks += -(-length // 8)
    after = STATS.snapshot()
    # Each block counted once by the vector call and once by the pure one.
    assert after["keystream_blocks"] - before["keystream_blocks"] == 2 * blocks
    assert after["keystream_vector_blocks"] - before["keystream_vector_blocks"] == blocks
    assert after["keystream_reused_blocks"] == before["keystream_reused_blocks"]
    _assert_one_batch(get_kernel(cipher))


@pytest.mark.parametrize("cipher_name", LANE_CIPHERS)
def test_the_pure_backend_bypasses_lane_batches(cipher_name, keystream_backend):
    cipher = get_cipher(cipher_name, bytes(range(100, 116)))
    kernel = get_kernel(cipher)
    state = (kernel._last, kernel._batch)
    keystream_backend("pure")
    for counter in range(1, 20):
        ctr_encrypt(cipher, counter, bytes(40))
    assert (kernel._last, kernel._batch) == state
    # The same stream on the vector backend starts a batch at its
    # second counter and serves the following ones from it.
    keystream_backend("vector")
    for counter in range(1, 4):
        ctr_encrypt(cipher, counter, bytes(40))
    first, depth, width, _ = kernel._batch
    assert (first, depth, width) == (2, LANES_MAX_BLOCKS // 5, 5)


def test_setup_counters_never_form_a_stream():
    """HELLO/LINKINFO under K_m use counters 2i and 2i+1 in random node
    order: no counter follows the previous one, so no batch is made."""
    cipher = get_cipher("speck64/128", bytes(range(200, 216)))
    kernel = get_kernel(cipher)
    for node in (7, 3, 11, 5, 2):
        kernels.message_keystream(cipher, 2 * node, 6)
    for node in (5, 11, 2, 7, 3):
        kernels.message_keystream(cipher, 2 * node + 1, 6)
    assert kernel._batch is None


# -- backend selector semantics ----------------------------------------------


def test_backend_registry_names():
    assert BACKENDS == ("pure", "vector")
    assert active_backend() in BACKENDS


def test_set_backend_round_trip(keystream_backend):
    set_backend("pure")
    assert active_backend() == "pure"
    set_backend("vector")
    assert active_backend() == "vector"


def test_set_backend_rejects_unknown(keystream_backend):
    before = active_backend()
    with pytest.raises(ValueError, match="unknown crypto backend"):
        set_backend("simd")
    assert active_backend() == before


def test_use_vector_dispatch(keystream_backend):
    set_backend("vector")
    assert use_vector("speck64/128", 1)
    assert use_vector("xtea", 3)
    # RC5 only pays off at numpy scale.
    assert not use_vector("rc5-32/12/16", 3)
    assert use_vector("rc5-32/12/16", 64)
    # No kernel registered -> scalar.
    assert not use_vector("nonexistent-cipher", 1000)
    # The pure backend sends every batch down the scalar loop.
    set_backend("pure")
    assert not use_vector("speck64/128", 64)


def test_has_kernel():
    for name in CIPHERS:
        assert has_kernel(name)
    assert not has_kernel("aes-128")


def test_get_kernel_unknown_cipher():
    class FakeCipher:
        name = "fake-cipher"
        block_size = 8

    with pytest.raises(KeyError, match="no batched kernel"):
        get_kernel(FakeCipher())


# -- end-to-end: both backends on the wire ------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    key=st.binary(min_size=16, max_size=16),
    counter=st.integers(min_value=0, max_value=(1 << 48) - 1),
    payload=st.binary(max_size=200),
    ad=st.binary(max_size=20),
)
@pytest.mark.parametrize("cipher_name", CIPHERS)
def test_seal_byte_identical_across_backends(
    cipher_name, key, counter, payload, ad, keystream_backend
):
    """Backends never change bytes on the wire, and cross-open works."""
    config = AeadConfig(cipher=cipher_name)
    keystream_backend("pure")
    sealed_pure = seal(key, counter, payload, ad, config)
    keystream_backend("vector")
    sealed_vector = seal(key, counter, payload, ad, config)
    assert sealed_pure == sealed_vector
    assert open_(key, counter, sealed_pure, ad, config) == payload
    keystream_backend("pure")
    assert open_(key, counter, sealed_vector, ad, config) == payload
