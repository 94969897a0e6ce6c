"""Batched block-cipher kernels and the crypto backend registry.

Every LDP frame is sealed/opened twice per hop (the paper's Step-1
end-to-end wrap plus the Step-2 hop-by-hop cluster-key wrap), so CTR
keystream generation is the measured bottleneck of both the simulator
and the live runtime. The scalar ciphers in :mod:`repro.crypto.speck` /
``xtea`` / ``rc5`` encrypt one 8-byte block per Python call; the kernels
here encrypt a whole *batch* of counter blocks per call, via two
complementary techniques:

* **bignum lanes** — the batch is packed into one Python big integer,
  one 64-bit lane per block, and every cipher round runs as a handful
  of big-int shifts/adds/xors. CPython executes those in C across all
  lanes at once, with ~50 ns dispatch per operation, so this path wins
  from the very first block and dominates up to medium batches
  (sensor frames are 2-8 blocks — this is the runtime's fast path).
* **numpy vectors** — uint32 array arithmetic over the batch. Higher
  fixed dispatch cost (~100 µs per keystream) but flat per-block cost,
  so it takes over for bulk batches (and is the only vectorized option
  for RC5, whose data-dependent rotations cannot ride bignum lanes).

Two backends are registered:

* ``"pure"`` — the scalar from-scratch ciphers, one ``encrypt_block``
  per counter block. This is the *oracle*: it is what the test suite
  validates against published vectors, and the parity property tests
  (tests/crypto/test_kernels.py) pin the batched kernels byte-identical
  to it.
* ``"vector"`` — the batched kernels below. Each kernel advertises a
  ``min_blocks`` threshold under which the scalar path is cheaper; the
  selector falls back automatically beneath it.

The active backend defaults to ``"vector"`` and can be forced per
process with ``REPRO_CRYPTO_BACKEND=pure|vector``, per deployment with
``ProtocolConfig(crypto_backend=...)``, or per call via the ``backend``
argument that :func:`repro.crypto.modes.ctr_encrypt` threads through.
The lane kernels are pure Python, so the ``vector`` backend works even
where numpy is unavailable — only RC5 then degrades to the scalar path.
"""

from __future__ import annotations

import os
from functools import lru_cache

try:  # numpy is a declared dependency, but the kernels degrade without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

from repro.crypto.block import BlockCipher
from repro.crypto.rc5 import Rc5
from repro.crypto.speck import Speck64_128
from repro.crypto.xtea import Xtea

__all__ = [
    "BACKENDS",
    "LANES_MAX_BLOCKS",
    "active_backend",
    "set_backend",
    "resolve_backend",
    "use_vector",
    "has_kernel",
    "get_kernel",
    "keystream",
    "SpeckKernel",
    "XteaKernel",
    "Rc5Kernel",
]

#: Names accepted by the backend selector.
BACKENDS = ("pure", "vector")

#: Largest batch the bignum-lane path handles before handing over to
#: numpy (big-int shifts are O(total bits), so lanes scale superlinearly
#: while numpy's per-block cost is flat; measured crossover is ~100
#: blocks on CPython 3.11 + numpy 2.x).
LANES_MAX_BLOCKS = 64

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _env_default() -> str:
    backend = os.environ.get("REPRO_CRYPTO_BACKEND", "vector")
    return backend if backend in BACKENDS else "vector"


_active = _env_default()


def active_backend() -> str:
    """The process-wide default backend name."""
    return _active


def set_backend(name: str) -> None:
    """Set the process-wide default backend.

    Raises:
        ValueError: for a name not in :data:`BACKENDS`.
    """
    global _active
    if name not in BACKENDS:
        raise ValueError(f"unknown crypto backend {name!r}; choose from {BACKENDS}")
    _active = name


def resolve_backend(override: str | None) -> str:
    """Fold an optional per-call/per-deployment override into a backend name."""
    if override is None:
        return _active
    if override not in BACKENDS:
        raise ValueError(f"unknown crypto backend {override!r}; choose from {BACKENDS}")
    return override


def use_vector(cipher_name: str, n_blocks: int, override: str | None = None) -> bool:
    """Whether a batch of ``n_blocks`` for ``cipher_name`` should go batched."""
    if resolve_backend(override) != "vector":
        return False
    kernel_cls = _KERNELS.get(cipher_name)
    if kernel_cls is None:
        return False
    if kernel_cls.needs_numpy and _np is None:
        return False
    return n_blocks >= kernel_cls.min_blocks


# ---------------------------------------------------------------------------
# Bignum-lane plumbing. A batch of n 64-bit blocks is packed into two big
# integers X (high words) and Y (low words), one 64-bit lane per block; a
# 32-bit value lives in the low half of its lane and the top half absorbs
# shift spill and addition carries until the next per-lane mask. Lanes are
# packed in *descending* counter order so that the final
# ``((X << 32) | Y).to_bytes(..., "little")[::-1]`` emits the big-endian
# ciphertext blocks in ascending counter order in one pass.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _lane_consts(n: int) -> tuple[int, int, int]:
    """Per-batch-size lane constants: (ones, mask, descending ramp).

    ``ones`` has bit ``64*i`` set for every lane (multiply by it to
    broadcast a 32-bit constant); ``mask`` keeps the low 32 bits of every
    lane; ``ramp`` holds ``n-1-i`` in lane ``i`` (the descending counter
    offsets).
    """
    ones = 0
    ramp = 0
    for i in range(n):
        ones |= 1 << (64 * i)
        ramp |= (n - 1 - i) << (64 * i)
    return ones, ones * _MASK32, ramp


def _pack_counters(base: int, n: int) -> tuple[int, int]:
    """Pack blocks ``base .. base+n-1`` into (X, Y) lane integers."""
    ones, _, ramp = _lane_consts(n)
    lo = base & _MASK32
    if lo + n <= 1 << 32:
        # Counters share one high word and the low words never carry —
        # the whole batch packs as two broadcasts and one precomputed
        # ramp (this is every in-segment CTR keystream; see modes.py).
        return ((base >> 32) & _MASK32) * ones, lo * ones + ramp
    x = y = 0
    for i in range(n):
        v = (base + n - 1 - i) & _MASK64
        x |= (v >> 32) << (64 * i)
        y |= (v & _MASK32) << (64 * i)
    return x, y


def _unpack_lanes(x: int, y: int, n: int) -> bytes:
    """Lane integers (descending order) -> concatenated big-endian blocks."""
    return ((x << 32) | y).to_bytes(8 * n, "little")[::-1]


# ---------------------------------------------------------------------------
# The kernels. Each is built from (and keyed by) a scalar cipher instance,
# reusing its key schedule — one source of truth for round keys, validated
# by the published-vector tests. ``encrypt_blocks`` is the generic numpy
# bulk path over an arbitrary uint64 array; ``keystream`` is the CTR fast
# path over a consecutive counter range, choosing lanes or numpy by size.
# ---------------------------------------------------------------------------


class SpeckKernel:
    """Batched Speck64/128 encryption over arrays of counter blocks."""

    name = Speck64_128.name
    min_blocks = 1
    needs_numpy = False

    def __init__(self, cipher: Speck64_128) -> None:
        self._round_keys = cipher._round_keys
        self._np_keys = None
        if _np is not None:
            self._np_keys = _np.asarray(cipher._round_keys, dtype=_np.uint32)
        self._lane_keys: dict[int, tuple[int, int, tuple[int, ...]]] = {}

    def _lane_setup(self, n: int) -> tuple[int, int, tuple[int, ...]]:
        setup = self._lane_keys.get(n)
        if setup is None:
            ones, mask, _ = _lane_consts(n)
            setup = (ones, mask, tuple(k * ones for k in self._round_keys))
            if len(self._lane_keys) < 64:  # bound the per-kernel cache
                self._lane_keys[n] = setup
        return setup

    def lane_keystream(self, base: int, n: int) -> bytes:
        """Encrypt blocks ``base .. base+n-1`` on bignum lanes."""
        _, mask, keys = self._lane_setup(n)
        x, y = _pack_counters(base, n)
        for k in keys:
            x = ((((x >> 8) | (x << 24)) & mask) + y) & mask ^ k
            y = ((y << 3) | (y >> 29)) & mask ^ x
        return _unpack_lanes(x, y, n)

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt every 64-bit value in ``blocks`` (uint64 array), numpy."""
        blocks = _np.asarray(blocks, dtype=_np.uint64)
        x = (blocks >> _np.uint64(32)).astype(_np.uint32)
        y = blocks.astype(_np.uint32)
        for k in self._np_keys:
            x = (((x >> _np.uint32(8)) | (x << _np.uint32(24))) + y) ^ k
            y = ((y << _np.uint32(3)) | (y >> _np.uint32(29))) ^ x
        out = _np.empty(2 * len(blocks), dtype=">u4")
        out[0::2] = x
        out[1::2] = y
        return out.tobytes()

    def keystream(self, base: int, n: int) -> bytes:
        """``8*n`` keystream bytes for counter blocks ``base .. base+n-1``."""
        if n <= LANES_MAX_BLOCKS or _np is None:
            return self.lane_keystream(base, n)
        blocks = _np.arange(n, dtype=_np.uint64) + _np.uint64(base & _MASK64)
        return self.encrypt_blocks(blocks)


class XteaKernel:
    """Batched XTEA encryption over arrays of counter blocks."""

    name = Xtea.name
    min_blocks = 1
    needs_numpy = False

    def __init__(self, cipher: Xtea) -> None:
        # The round addends depend only on the key and the cycle index,
        # so precompute both per-cycle constants once per key.
        k = cipher._key
        delta, mask = 0x9E3779B9, _MASK32
        total = 0
        consts: list[tuple[int, int]] = []
        for _ in range(32):
            c0 = (total + k[total & 3]) & mask
            total = (total + delta) & mask
            c1 = (total + k[(total >> 11) & 3]) & mask
            consts.append((c0, c1))
        self._consts = consts
        self._np_consts = None
        if _np is not None:
            self._np_consts = [
                (_np.uint32(c0), _np.uint32(c1)) for c0, c1 in consts
            ]
        self._lane_keys: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}

    def _lane_setup(self, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        setup = self._lane_keys.get(n)
        if setup is None:
            ones, mask, _ = _lane_consts(n)
            setup = (mask, tuple((c0 * ones, c1 * ones) for c0, c1 in self._consts))
            if len(self._lane_keys) < 64:
                self._lane_keys[n] = setup
        return setup

    def lane_keystream(self, base: int, n: int) -> bytes:
        """Encrypt blocks ``base .. base+n-1`` on bignum lanes."""
        mask, consts = self._lane_setup(n)
        v0, v1 = _pack_counters(base, n)
        # Shift spill and add carries stay inside each 64-bit lane (the
        # working values are < 2**37 before each mask), so one mask per
        # half-cycle suffices — same arithmetic as the scalar cipher.
        for c0, c1 in consts:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) & mask) + v1 ^ c0)) & mask
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) & mask) + v0 ^ c1)) & mask
        return _unpack_lanes(v0, v1, n)

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt every 64-bit value in ``blocks`` (uint64 array), numpy."""
        blocks = _np.asarray(blocks, dtype=_np.uint64)
        v0 = (blocks >> _np.uint64(32)).astype(_np.uint32)
        v1 = blocks.astype(_np.uint32)
        four, five = _np.uint32(4), _np.uint32(5)
        for c0, c1 in self._np_consts:
            v0 = v0 + ((((v1 << four) ^ (v1 >> five)) + v1) ^ c0)
            v1 = v1 + ((((v0 << four) ^ (v0 >> five)) + v0) ^ c1)
        out = _np.empty(2 * len(blocks), dtype=">u4")
        out[0::2] = v0
        out[1::2] = v1
        return out.tobytes()

    def keystream(self, base: int, n: int) -> bytes:
        """``8*n`` keystream bytes for counter blocks ``base .. base+n-1``."""
        if n <= LANES_MAX_BLOCKS or _np is None:
            return self.lane_keystream(base, n)
        blocks = _np.arange(n, dtype=_np.uint64) + _np.uint64(base & _MASK64)
        return self.encrypt_blocks(blocks)


class Rc5Kernel:
    """Batched RC5-32/12/16 encryption over arrays of counter blocks.

    RC5's rotation amounts are data-dependent (every lane would rotate by
    a different count), which bignum lanes cannot express — this kernel is
    numpy-only, and its ``min_blocks`` reflects numpy's fixed dispatch
    cost.
    """

    name = Rc5.name
    min_blocks = 16
    needs_numpy = True

    def __init__(self, cipher: Rc5) -> None:
        self._s = [_np.uint32(word) for word in cipher._s]

    @staticmethod
    def _rotl(x, r):
        """Per-element left rotation (RC5's data-dependent rotate)."""
        r = (r & _np.uint32(31)).astype(_np.uint64)
        widened = x.astype(_np.uint64) << r
        return (widened | (widened >> _np.uint64(32))).astype(_np.uint32)

    def encrypt_blocks(self, blocks) -> bytes:
        """Encrypt every 64-bit value in ``blocks`` (uint64 array), numpy."""
        blocks = _np.asarray(blocks, dtype=_np.uint64)
        # RC5 reads its two words little-endian from the 8-byte block.
        a = (blocks >> _np.uint64(32)).astype(_np.uint32).byteswap()
        b = blocks.astype(_np.uint32).byteswap()
        s = self._s
        a = a + s[0]
        b = b + s[1]
        for i in range(1, 13):
            a = self._rotl(a ^ b, b) + s[2 * i]
            b = self._rotl(b ^ a, a) + s[2 * i + 1]
        out = _np.empty(2 * len(blocks), dtype="<u4")
        out[0::2] = a
        out[1::2] = b
        return out.tobytes()

    def keystream(self, base: int, n: int) -> bytes:
        """``8*n`` keystream bytes for counter blocks ``base .. base+n-1``."""
        blocks = _np.arange(n, dtype=_np.uint64) + _np.uint64(base & _MASK64)
        return self.encrypt_blocks(blocks)


_KERNELS: dict[str, type] = {
    SpeckKernel.name: SpeckKernel,
    XteaKernel.name: XteaKernel,
    Rc5Kernel.name: Rc5Kernel,
}


def has_kernel(cipher_name: str) -> bool:
    """Whether a batched kernel can run for ``cipher_name``."""
    kernel_cls = _KERNELS.get(cipher_name)
    if kernel_cls is None:
        return False
    return not (kernel_cls.needs_numpy and _np is None)


@lru_cache(maxsize=4096)
def get_kernel(cipher: BlockCipher):
    """Keyed kernel instance for a scalar cipher (cached like get_cipher).

    ``cipher`` should come from :func:`repro.crypto.block.get_cipher`, so
    instances are shared per (name, key) and this cache never grows past
    the cipher cache.

    Raises:
        KeyError: for a cipher with no registered kernel.
        RuntimeError: for a kernel that needs numpy when it is unavailable.
    """
    kernel_cls = _KERNELS.get(cipher.name)
    if kernel_cls is None:
        raise KeyError(
            f"no batched kernel for {cipher.name!r}; available: {sorted(_KERNELS)}"
        )
    if kernel_cls.needs_numpy and _np is None:
        raise RuntimeError(f"numpy unavailable: the {cipher.name!r} kernel cannot run")
    return kernel_cls(cipher)


def keystream(cipher: BlockCipher, base: int, n_blocks: int) -> bytes:
    """Batched keystream for counter blocks ``base .. base+n_blocks-1``.

    Byte-identical to calling ``cipher.encrypt_block`` on each big-endian
    packed counter value (the parity property tests pin this).
    """
    return get_kernel(cipher).keystream(base, n_blocks)
