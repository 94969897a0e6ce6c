"""Crypto microbenchmarks.

Supports the paper's premise ([3]): symmetric primitives are the right
tool for motes. These are real pytest-benchmark timings (multiple rounds)
of the from-scratch primitives on sensor-sized payloads.
"""

import itertools

import pytest

from repro.crypto import (
    AeadConfig,
    Speck64_128,
    Xtea,
    ctr_encrypt,
    get_cipher,
    hmac_sha256,
    mac,
    seal,
    sha256,
    sha256_fast,
)
from repro.crypto import kernels

KEY = bytes(range(16))
PAYLOAD = bytes(range(41))  # a TinySec-sized sensor frame

#: Every timed call takes a fresh message counter, as real frames do, and
#: the next one, as one sender's hop seqs are: vector calls are served by
#: the kernels' lane batches as a sender's are. Neither the CTR mode nor
#: seal is memoised (only opens are).
_COUNTERS = itertools.count(1)


@pytest.fixture
def backend(request):
    """The keystream backend the test is parametrized with, switched on
    for its duration and restored afterwards."""
    saved = kernels.active_backend()
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend(saved)


def _ctr_fresh(cipher, payload):
    return ctr_encrypt(cipher, next(_COUNTERS), payload)


def _seal_fresh(payload, config):
    return seal(KEY, next(_COUNTERS), payload, config=config)


@pytest.mark.parametrize("cipher_cls", [Speck64_128, Xtea], ids=lambda c: c.name)
def test_block_encrypt(benchmark, cipher_cls):
    cipher = cipher_cls(KEY)
    block = bytes(8)
    benchmark(cipher.encrypt_block, block)


@pytest.mark.parametrize("backend", ["pure", "vector"], indirect=True)
def test_ctr_frame_encrypt(benchmark, backend):
    cipher = get_cipher("speck64/128", KEY)
    benchmark(_ctr_fresh, cipher, PAYLOAD)


@pytest.mark.parametrize("n_blocks", [3, 64])
@pytest.mark.parametrize("backend", ["pure", "vector"], indirect=True)
def test_keystream_batch(benchmark, backend, n_blocks):
    """Scalar vs batched keystream at the frame size and the lane peak."""
    cipher = get_cipher("speck64/128", KEY)
    payload = bytes(8 * n_blocks)
    benchmark(_ctr_fresh, cipher, payload)


def test_hmac_frame(benchmark):
    benchmark(hmac_sha256, KEY, PAYLOAD)


def test_truncated_mac_frame(benchmark):
    benchmark(mac, KEY, PAYLOAD)


@pytest.mark.parametrize("backend", ["pure", "vector"], indirect=True)
def test_seal_frame(benchmark, backend):
    benchmark(_seal_fresh, PAYLOAD, AeadConfig())


def test_pure_python_sha256(benchmark):
    benchmark(sha256, PAYLOAD)


def test_fast_sha256(benchmark):
    benchmark(sha256_fast, PAYLOAD)
