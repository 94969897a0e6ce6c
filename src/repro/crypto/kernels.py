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

A CTR keystream belongs to one *message counter* (see
:mod:`repro.crypto.modes`: message ``c`` owns the blocks from ``c << 16``
on). The lane kernels also keep one pending *lane batch* of message
keystreams per key: when a message counter directly follows the key's
previous one — a sequential stream such as a forwarder's hop seqs or a
source's Step-1 counters — one lane pass makes the keystreams of the
next ``LANES_MAX_BLOCKS // n_blocks`` messages at once, and later
messages of the stream are served from it. A big-int lane operation
costs far less per lane over 64 lanes than over 7, so a batch of nine
7-block messages costs a few single keystreams (docs/PERFORMANCE.md).
Counters that form no stream (the setup frames sealed under ``K_m`` in
random node order) pay nothing extra.

The active backend is ``"vector"``; :func:`set_backend` is the one
switch, kept to reach the ``pure`` oracle (the tests and the ``pure``
rows of ``repro bench crypto``). Within ``vector``, lanes, numpy or the
scalar loop is picked from the block count and from whether numpy is
present, never by the caller. The lane kernels are pure Python, so the
``vector`` backend works even where numpy is unavailable — only RC5
then degrades to the scalar path.
"""

from __future__ import annotations

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
    "use_vector",
    "has_kernel",
    "get_kernel",
    "keystream",
    "message_keystream",
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


_active = "vector"


def active_backend() -> str:
    """The process-wide keystream backend name."""
    return _active


def set_backend(name: str) -> None:
    """Set the process-wide keystream backend.

    Raises:
        ValueError: for a name not in :data:`BACKENDS`.
    """
    global _active
    if name not in BACKENDS:
        raise ValueError(f"unknown crypto backend {name!r}; choose from {BACKENDS}")
    _active = name


def use_vector(cipher_name: str, n_blocks: int) -> bool:
    """Whether a batch of ``n_blocks`` for ``cipher_name`` should go batched."""
    if _active != "vector":
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
def _lane_consts(n: int) -> tuple[int, int]:
    """Per-batch-size lane constants: (ones, mask).

    ``ones`` has bit ``64*i`` set for every lane (multiply by it to
    broadcast a 32-bit constant); ``mask`` keeps the low 32 bits of every
    lane.
    """
    ones = 0
    for i in range(n):
        ones |= 1 << (64 * i)
    return ones, ones * _MASK32


@lru_cache(maxsize=256)
def _ramp(depth: int, width: int) -> int:
    """Descending lane offsets of ``depth`` runs of ``width`` blocks.

    Block ``i`` of run ``j`` sits in lane ``depth*width - 1 - (j*width + i)``
    and holds its offset ``(j << 16) + i`` from the first block: runs
    start 2**16 blocks apart, one message counter segment each.
    """
    n = depth * width
    ramp = 0
    for lane in range(n):
        j, i = divmod(n - 1 - lane, width)
        ramp |= ((j << 16) + i) << (64 * lane)
    return ramp


def _pack(base: int, depth: int, width: int) -> tuple[int, int]:
    """Pack blocks ``base + (j << 16) + i`` (``j < depth``, ``i < width``)
    into (X, Y) lane integers: one consecutive run for ``depth == 1``, the
    first ``width`` blocks of ``depth`` consecutive messages otherwise."""
    ones, _ = _lane_consts(depth * width)
    lo = base & _MASK32
    if lo + ((depth - 1) << 16) + width <= 1 << 32:
        # Blocks share one high word and the low words never carry — the
        # whole batch packs as two broadcasts and one precomputed ramp
        # (every in-segment CTR keystream; see modes.py).
        return ((base >> 32) & _MASK32) * ones, lo * ones + _ramp(depth, width)
    n = depth * width
    x = y = 0
    for lane in range(n):
        j, i = divmod(n - 1 - lane, width)
        v = (base + (j << 16) + i) & _MASK64
        x |= (v >> 32) << (64 * lane)
        y |= (v & _MASK32) << (64 * lane)
    return x, y


def _unpack_lanes(x: int, y: int, n: int) -> bytes:
    """Lane integers (descending order) -> concatenated big-endian blocks."""
    return ((x << 32) | y).to_bytes(8 * n, "little")[::-1]


# ---------------------------------------------------------------------------
# The kernels. Each is built from (and keyed by) a scalar cipher instance,
# reusing its key schedule — one source of truth for round keys, validated
# by the published-vector tests. ``encrypt_blocks`` is the generic numpy
# bulk path over an arbitrary uint64 array; ``keystream`` is the CTR fast
# path over a consecutive counter range, choosing lanes or numpy by size;
# ``message_keystream`` serves sequential message counters from a lane
# batch.
# ---------------------------------------------------------------------------


class _LaneKernel:
    """The lane paths shared by the Speck and XTEA kernels.

    A cipher provides ``_broadcast(n)`` (its round constants on ``n``
    lanes), ``_encrypt_lanes`` (its rounds over packed lanes) and
    ``encrypt_blocks`` (numpy). A kernel holds at most one pending lane
    batch: ``(first counter, depth, width, keystream bytes)``, the first
    ``width`` blocks of each of ``depth`` consecutive messages.
    """

    def __init__(self) -> None:
        self._lane_keys: dict[int, tuple] = {}
        self._last: int | None = None
        self._batch: tuple[int, int, int, bytes] | None = None

    def _lane_setup(self, n: int) -> tuple:
        setup = self._lane_keys.get(n)
        if setup is None:
            setup = self._broadcast(n)
            if len(self._lane_keys) < 64:  # bound the per-kernel cache
                self._lane_keys[n] = setup
        return setup

    def lane_keystream(self, base: int, n: int) -> bytes:
        """Encrypt blocks ``base .. base+n-1`` on bignum lanes."""
        x, y = _pack(base, 1, n)
        return self._encrypt_lanes(x, y, n, self._lane_setup(n))

    def keystream(self, base: int, n: int) -> bytes:
        """``8*n`` keystream bytes for counter blocks ``base .. base+n-1``."""
        if n <= LANES_MAX_BLOCKS or _np is None:
            return self.lane_keystream(base, n)
        blocks = _np.arange(n, dtype=_np.uint64) + _np.uint64(base & _MASK64)
        return self.encrypt_blocks(blocks)

    def message_keystream(self, counter: int, n: int) -> bytes:
        """``8*n`` keystream bytes of message ``counter`` (blocks ``counter << 16`` on).

        Served from the pending batch when it holds ``counter`` at
        ``n`` blocks or more. Otherwise, a counter that directly follows
        the previous one starts a new batch over the next
        ``LANES_MAX_BLOCKS // n`` messages; any other is computed alone.
        """
        batch = self._batch
        if batch is not None:
            first, depth, width, data = batch
            offset = counter - first
            if 0 <= offset < depth and n <= width:
                self._last = counter
                start = 8 * width * offset
                return data[start : start + 8 * n]
        sequential = counter - 1 == self._last
        self._last = counter
        depth = LANES_MAX_BLOCKS // n
        if not sequential or depth < 2:
            return self.keystream(counter << 16, n)
        # Batch sizes are broadcast per batch, never cached per kernel:
        # thousands of keyed kernels each holding 64-lane round
        # constants would cost megabytes.
        x, y = _pack(counter << 16, depth, n)
        data = self._encrypt_lanes(x, y, depth * n, self._broadcast(depth * n))
        self._batch = (counter, depth, n, data)
        return data[: 8 * n]


class SpeckKernel(_LaneKernel):
    """Batched Speck64/128 encryption over arrays of counter blocks."""

    name = Speck64_128.name
    min_blocks = 1
    needs_numpy = False

    def __init__(self, cipher: Speck64_128) -> None:
        super().__init__()
        self._round_keys = cipher._round_keys
        self._np_keys = None
        if _np is not None:
            self._np_keys = _np.asarray(cipher._round_keys, dtype=_np.uint32)

    def _broadcast(self, n: int) -> tuple[int, tuple[int, ...]]:
        """Lane mask and round keys broadcast to ``n`` lanes."""
        ones, mask = _lane_consts(n)
        return mask, tuple(k * ones for k in self._round_keys)

    @staticmethod
    def _encrypt_lanes(x: int, y: int, n: int, setup: tuple) -> bytes:
        mask, keys = setup
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


class XteaKernel(_LaneKernel):
    """Batched XTEA encryption over arrays of counter blocks."""

    name = Xtea.name
    min_blocks = 1
    needs_numpy = False

    def __init__(self, cipher: Xtea) -> None:
        super().__init__()
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

    def _broadcast(self, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Lane mask and per-cycle constants broadcast to ``n`` lanes."""
        ones, mask = _lane_consts(n)
        return mask, tuple((c0 * ones, c1 * ones) for c0, c1 in self._consts)

    @staticmethod
    def _encrypt_lanes(v0: int, v1: int, n: int, setup: tuple) -> bytes:
        mask, consts = setup
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

    def message_keystream(self, counter: int, n: int) -> bytes:
        """``8*n`` keystream bytes of message ``counter`` (never batched)."""
        return self.keystream(counter << 16, n)


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


def message_keystream(cipher: BlockCipher, counter: int, n_blocks: int) -> bytes:
    """Batched keystream of message ``counter``: blocks ``counter << 16`` on.

    Byte-identical to :func:`keystream` over the same blocks; the lane
    kernels may serve it from (or start) their pending lane batch.
    """
    return get_kernel(cipher).message_keystream(counter, n_blocks)
