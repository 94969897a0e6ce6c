"""Message authentication codes built on the from-scratch primitives.

Two constructions:

* :func:`hmac_sha256` — RFC 2104 HMAC over our SHA-256; used for the
  protocol's MACs (the paper's ``MAC_K(M)``) and as the PRF ``F``.
* :class:`CbcMac` — classic CBC-MAC over a block cipher with length
  prepending (secure for the fixed-format, length-prefixed messages the
  protocol exchanges); provided because CBC-MAC is what TinySec-era motes
  actually shipped, and the ablation benches compare the two.

MAC tags are truncated to :data:`DEFAULT_TAG_LEN` bytes on the wire, the
common 8-byte sensor-network tag size (TinySec/SPINS use 4–8 bytes).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable

from repro.crypto.block import BlockCipher
from repro.crypto.sha256 import sha256_fast, sha256_hasher
from repro.util.bytesutil import constant_time_eq, xor_bytes

DEFAULT_TAG_LEN = 8

_BLOCK = 64
_IPAD = bytes(0x36 for _ in range(_BLOCK))
_OPAD = bytes(0x5C for _ in range(_BLOCK))


@lru_cache(maxsize=8192)
def _hmac_pads(key: bytes) -> tuple[bytes, bytes]:
    """The key's inner/outer pad blocks (``K ^ ipad``, ``K ^ opad``).

    A sensor network MACs thousands of frames under a handful of
    long-lived keys; caching the pads removes two 64-byte XORs and a key
    normalization from every tag on the hot path.
    """
    if len(key) > _BLOCK:
        key = sha256_fast(key)
    key = key.ljust(_BLOCK, b"\x00")
    return xor_bytes(key, _IPAD), xor_bytes(key, _OPAD)


@lru_cache(maxsize=8192)
def hmac_midstates(key: bytes) -> tuple[Any, Any]:
    """Pad-absorbed incremental hashers for ``key`` (inner, outer).

    One step past :func:`_hmac_pads`: the cached hashers have already
    compressed their 64-byte pad block, so every tag under a cached key
    starts from a ``copy()`` of the midstate instead of re-hashing the
    pad — two SHA-256 compressions saved per tag, which is a measurable
    fraction of MAC-ing a short sensor frame. The cached hashers are
    never mutated (only their copies are fed message bytes), so the
    construction stays byte-for-byte RFC 2104.
    """
    ipad, opad = _hmac_pads(key)
    inner = sha256_hasher()
    inner.update(ipad)
    outer = sha256_hasher()
    outer.update(opad)
    return inner, outer


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """Full 32-byte HMAC-SHA256 tag."""
    return hmac_sha256_parts(key, (message,))


def hmac_sha256_parts(key: bytes, parts: Iterable[bytes]) -> bytes:
    """Full HMAC-SHA256 tag over the concatenation of ``parts``.

    Feeds each part to an incremental hasher instead of joining them, so
    callers authenticating ``header | ciphertext`` never copy the
    ciphertext (the AEAD layer's zero-copy MAC input path). The hashers
    resume from the per-key pad midstates cached by
    :func:`hmac_midstates`.
    """
    inner_base, outer_base = hmac_midstates(key)
    h = inner_base.copy()
    for part in parts:
        h.update(part)
    outer = outer_base.copy()
    outer.update(h.digest())
    return outer.digest()


def mac(key: bytes, message: bytes, tag_len: int = DEFAULT_TAG_LEN) -> bytes:
    """Truncated HMAC tag as carried on the (simulated) wire."""
    if not 1 <= tag_len <= 32:
        raise ValueError(f"tag_len must be in [1, 32], got {tag_len}")
    return hmac_sha256_parts(key, (message,))[:tag_len]


def mac_parts(
    key: bytes, parts: Iterable[bytes], tag_len: int = DEFAULT_TAG_LEN
) -> bytes:
    """Truncated HMAC tag over the concatenation of ``parts``, zero-copy."""
    if not 1 <= tag_len <= 32:
        raise ValueError(f"tag_len must be in [1, 32], got {tag_len}")
    return hmac_sha256_parts(key, parts)[:tag_len]


def verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time verification of a truncated HMAC tag."""
    return verify_parts(key, (message,), tag)


def verify_parts(key: bytes, parts: Iterable[bytes], tag: bytes) -> bool:
    """Constant-time verification of a truncated HMAC tag over ``parts``."""
    if not tag:
        return False
    return constant_time_eq(mac_parts(key, parts, len(tag)), tag)


class CbcMac:
    """CBC-MAC over an 8-byte block cipher, length-prepended.

    Prepending the message length as the first block makes plain CBC-MAC
    secure for variable-length messages (the standard fix for the
    extension weakness of raw CBC-MAC).
    """

    def __init__(self, cipher: BlockCipher) -> None:
        self._cipher = cipher
        self._block = cipher.block_size

    def tag(self, message: bytes, tag_len: int = DEFAULT_TAG_LEN) -> bytes:
        """Compute a CBC-MAC tag of ``tag_len`` bytes (≤ block size)."""
        if not 1 <= tag_len <= self._block:
            raise ValueError(f"tag_len must be in [1, {self._block}], got {tag_len}")
        block = self._block
        data = len(message).to_bytes(block, "big") + message
        if len(data) % block:
            data += b"\x00" * (block - len(data) % block)
        state = bytes(block)
        for off in range(0, len(data), block):
            state = self._cipher.encrypt_block(xor_bytes(state, data[off : off + block]))
        return state[:tag_len]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-time verification."""
        if not tag:
            return False
        return constant_time_eq(self.tag(message, len(tag)), tag)
