"""Encrypt-then-MAC composition used by both protocol steps.

The paper's two-step construction (Figs. 3 and 4) is encrypt-then-MAC with
independent derived keys:

    y  <- E_{Kencr}(payload)          (CTR mode, shared counter)
    t  <- MAC_{Kmac}(y)
    c  <- y | t

:func:`seal` / :func:`open_` implement exactly that, with optional
*associated data* (bytes that are authenticated but not encrypted — the
cluster id ``CID`` that Step 2 prepends in clear so receivers can select
the right key from their set ``S``).

Both directions sit on the per-frame hot path: a broadcast is sealed once
and opened by every neighbour holding the key. Everything fixed per
``(key, cipher)`` — the two derived keys, the keyed cipher, the HMAC pad
midstates of ``K_mac`` and the cipher-name MAC prefix — is bound once in
a cached per-key context. The MAC input is fed to the hasher as
``header | ciphertext`` parts (never concatenated — the ciphertext is the
bulk of every frame).

Every receiver of a broadcast would compute the same tag and plaintext
from the same bytes, so the most recent verified opens are kept in a
bounded memo keyed on every input of the MAC and the CTR. :func:`seal`
primes the entry and an :func:`open_` that misses fills it once its tag
verified; a failed open never inserts, so forged traffic cannot evict
genuine entries. A hit still compares the receiver's *own* received tag
in constant time before it returns the plaintext, and counts the
keystream work a recomputation would (plus ``keystream_reused_blocks``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from hmac import compare_digest
from typing import Any, NamedTuple

from repro.crypto.block import BlockCipher, available_ciphers, get_cipher, is_registered
from repro.crypto.kdf import ENCRYPT_USAGE, MAC_USAGE, derive_usage_key
from repro.crypto.kernels import active_backend
from repro.crypto.mac import DEFAULT_TAG_LEN, hmac_midstates
from repro.crypto.modes import ctr_decrypt, ctr_encrypt
from repro.crypto.stats import STATS

#: Most per-key contexts :func:`_key_context` keeps (least recently used
#: evicted first) — the bound of the cipher-instance cache they share.
KEY_CONTEXT_CACHE_SIZE = 4096

#: Most verified opens the memo keeps (oldest inserted evicted first). A
#: frame's receivers open it within a few hundred seals and opens of its
#: seal even on a lossy soak with retransmits.
OPEN_MEMO_SIZE = 512

#: (key, cipher name, active backend, counter, associated data,
#: ciphertext) -> (full HMAC tag, plaintext, keystream block count,
#: whether the batched kernel made the keystream), in insertion order. It
#: takes no lock: every caller of seal/open runs on its deployment's
#: event-loop thread.
_opened: dict[tuple[bytes, str, str, int, bytes, bytes], tuple[bytes, bytes, int, bool]] = {}

#: MAC-header fields after the cipher name: the associated-data length,
#: then (after the associated data) the message counter.
_AD_LEN = struct.Struct(">I")
_COUNTER = struct.Struct(">Q")


class AuthenticationError(Exception):
    """MAC verification failed: the message is not legitimate and, per the
    paper, "should be dropped"."""


@dataclass(frozen=True)
class AeadConfig:
    """Cipher selection and tag size for the composition.

    Raises:
        ValueError: at construction, for an unregistered cipher name or a
            ``tag_len`` outside [1, 32].
    """

    cipher: str = "speck64/128"
    tag_len: int = DEFAULT_TAG_LEN

    def __post_init__(self) -> None:
        if not is_registered(self.cipher):
            raise ValueError(
                f"unknown cipher {self.cipher!r}; available: {available_ciphers()}"
            )
        if not 1 <= self.tag_len <= 32:
            raise ValueError(f"tag_len must be in [1, 32], got {self.tag_len}")


class _KeyContext(NamedTuple):
    """Everything about one ``(key, cipher)`` pair that no message changes."""

    #: The cipher keyed with ``K_encr = F_K(0)``.
    cipher: BlockCipher
    #: HMAC inner/outer hashers of ``K_mac = F_K(1)``, pads absorbed.
    inner: Any
    outer: Any
    #: MAC-header prefix: the length-prefixed cipher name.
    prefix: bytes


@lru_cache(maxsize=KEY_CONTEXT_CACHE_SIZE)
def _key_context(key: bytes, cipher: str) -> _KeyContext:
    """The cached :class:`_KeyContext` of ``key`` under ``cipher``.

    A deployment seals and opens thousands of frames under a handful of
    long-lived keys; binding the derived keys, the keyed cipher and the
    MAC midstates once per key leaves each message its keystream and
    its two SHA-256 passes.
    """
    name = cipher.encode("ascii")
    inner, outer = hmac_midstates(derive_usage_key(key, MAC_USAGE))
    return _KeyContext(
        get_cipher(cipher, derive_usage_key(key, ENCRYPT_USAGE)),
        inner,
        outer,
        bytes([len(name)]) + name,
    )


def _mac(context: _KeyContext, associated_data: bytes, counter: int, ct: bytes) -> bytes:
    """Full HMAC-SHA256 of the MAC header and ``ct``, from the midstates.

    The header binds the cipher identity, the length-prefixed associated
    data and the counter; the ciphertext follows as a separate hasher
    update, so the tag equals ``HMAC(header | ciphertext)`` without ever
    building that concatenation. Binding the cipher name prevents a tag
    computed for one cipher from verifying a decryption under another.
    """
    inner = context.inner.copy()
    inner.update(
        context.prefix
        + _AD_LEN.pack(len(associated_data))
        + associated_data
        + _COUNTER.pack(counter)
    )
    inner.update(ct)
    outer = context.outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def _remember(
    memo_key: tuple, tag: bytes, plaintext: bytes, blocks: int, vector_blocks: int
) -> None:
    """Insert a verified open as the newest memo entry.

    ``blocks`` and ``vector_blocks`` are the ``STATS`` keystream totals
    read just before its keystream was made; the growth since is what a
    hit must count again. A re-inserted key moves to the newest position,
    so whether an entry is held depends only on the inserts since it was
    last made, not on what an earlier run in the process left behind.
    """
    _opened.pop(memo_key, None)
    _opened[memo_key] = (
        tag,
        plaintext,
        STATS.keystream_blocks - blocks,
        STATS.keystream_vector_blocks != vector_blocks,
    )
    if len(_opened) > OPEN_MEMO_SIZE:
        del _opened[next(iter(_opened))]


def seal(
    key: bytes,
    counter: int,
    plaintext: bytes,
    associated_data: bytes = b"",
    config: AeadConfig = AeadConfig(),
) -> bytes:
    """Encrypt-then-MAC ``plaintext`` under ``key`` and ``counter``.

    Returns ``ciphertext | tag``; the tag covers the associated data, the
    counter and the ciphertext, binding all three. The result primes the
    open memo, so each receiver of the broadcast pays only its own tag
    comparison.
    """
    STATS.seals += 1
    context = _key_context(key, config.cipher)
    blocks, vector_blocks = STATS.keystream_blocks, STATS.keystream_vector_blocks
    ct = ctr_encrypt(context.cipher, counter, plaintext)
    tag = _mac(context, associated_data, counter, ct)
    memo_key = (key, config.cipher, active_backend(), counter, associated_data, ct)
    _remember(memo_key, tag, bytes(plaintext), blocks, vector_blocks)
    return ct + tag[: config.tag_len]


def open_(
    key: bytes,
    counter: int,
    sealed: bytes,
    associated_data: bytes = b"",
    config: AeadConfig = AeadConfig(),
) -> bytes:
    """Verify and decrypt a :func:`seal` output.

    ``sealed`` may be any bytes-like object (the hop path passes a
    ``memoryview`` of the received frame); it is copied to ``bytes`` once,
    which hashes and compares faster as a memo key than a view does.

    Raises:
        AuthenticationError: on a bad tag or truncated input; the payload is
            never decrypted in that case (verify-then-decrypt).
    """
    STATS.opens += 1
    tag_len = config.tag_len
    if len(sealed) < tag_len:
        raise AuthenticationError("message shorter than its MAC tag")
    sealed = bytes(sealed)
    ct = sealed[:-tag_len]
    memo_key = (key, config.cipher, active_backend(), counter, associated_data, ct)
    hit = _opened.get(memo_key)
    if hit is not None:
        tag, plaintext, n_blocks, vector = hit
        if not compare_digest(tag[:tag_len], sealed[-tag_len:]):
            raise AuthenticationError("MAC verification failed")
        STATS.keystream_blocks += n_blocks
        if vector:
            STATS.keystream_vector_blocks += n_blocks
        STATS.keystream_reused_blocks += n_blocks
        return plaintext
    context = _key_context(key, config.cipher)
    tag = _mac(context, associated_data, counter, ct)
    if not compare_digest(tag[:tag_len], sealed[-tag_len:]):
        raise AuthenticationError("MAC verification failed")
    blocks, vector_blocks = STATS.keystream_blocks, STATS.keystream_vector_blocks
    plaintext = ctr_decrypt(context.cipher, counter, ct)
    _remember(memo_key, tag, plaintext, blocks, vector_blocks)
    return plaintext
