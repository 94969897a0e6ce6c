"""Counter-mode encryption over the 8-byte-block ciphers.

Section IV-C of the paper encrypts with a shared counter to get semantic
security without transmitting a nonce ("the counter approach results in
less transmission overhead as the counter is maintained in both ends").
We implement CTR mode over one 64-bit counter block laid out as::

    [ 48-bit message counter | 16-bit in-message block index ]

so each message counter owns a disjoint keystream segment of up to
2**16 blocks (512 KiB — far beyond any sensor frame) and counters up to
2**48 - 1 never collide. Callers own counter hygiene: a (key, counter)
pair must never encrypt two different messages.

CTR is length-preserving: no padding, ciphertext length equals plaintext
length, which matters on energy-metered radios.

Keystream generation is the measured hot path of the whole stack (every
frame is sealed/opened twice per hop), so :func:`_keystream` dispatches
the entire block range to a batched kernel
(:mod:`repro.crypto.kernels`) when the active backend allows it; the
scalar per-block loop remains as the ``pure`` reference oracle.

A broadcast is sealed once and opened by every neighbour, and each of
those calls needs the same keystream: it is a pure function of (key,
counter, length). :func:`_keystream` therefore keeps the most recent
keystreams in a small bounded memo, so the sender's seal computes a
frame's keystream and every receiver's open (after its own MAC check)
reuses it. The memo is keyed on the *resolved* backend as well, so a
``vector`` call never returns bytes a ``pure`` call produced and the
backend parity tests keep comparing two real computations.
"""

from __future__ import annotations

import struct

from repro.crypto import kernels
from repro.crypto.block import BlockCipher
from repro.crypto.stats import STATS
from repro.util.bytesutil import xor_bytes

#: Exclusive upper bound on message counters (48 bits).
MAX_COUNTER = 1 << 48

_MAX_BLOCKS = 1 << 16

#: Most keystreams :func:`_keystream` keeps for reuse (oldest evicted
#: first). A frame's receivers open it within a few hundred keystream
#: requests of its seal even on a lossy soak with retransmits; 64
#: entries served ~18% fewer opens there.
KEYSTREAM_MEMO_SIZE = 512

#: (cipher instance, message counter, length, resolved backend) ->
#: keystream bytes, in insertion order. It takes no lock: every caller of
#: seal/open runs on its deployment's event-loop thread.
_memo: dict[tuple[BlockCipher, int, int, str], bytes] = {}


def message_counter(value: int) -> int:
    """Validate and bless a fixed message counter (the approved constructor).

    Protocol code allocates counters from
    :class:`repro.protocol.forwarding.CounterState`; benchmarks, tests and
    tools that genuinely need a *fixed* counter construct it here so the
    range check runs and static analysis (ldplint CRYPT002) can tell a
    deliberate fixed counter from an accidental keystream-reusing literal.

    Raises:
        ValueError: if ``value`` is outside ``[0, 2**48)``.
    """
    if not 0 <= value < MAX_COUNTER:
        raise ValueError(f"counter must be in [0, 2**48), got {value}")
    return value


def _keystream(
    cipher: BlockCipher, counter: int, length: int, backend: str | None = None
) -> bytes:
    """Generate ``length`` keystream bytes for message ``counter``.

    ``backend`` overrides the process-wide kernel backend for this call
    (``None`` = use the active default, see :mod:`repro.crypto.kernels`).
    A keystream requested again for the same cipher instance, counter,
    length and resolved backend is served from the memo.
    """
    n_blocks = -(-length // cipher.block_size)
    if n_blocks > _MAX_BLOCKS:
        raise ValueError(f"message too long: {length} bytes exceeds the counter segment")
    resolved = kernels.resolve_backend(backend)
    vector = kernels.use_vector(cipher.name, n_blocks, resolved)
    STATS.keystream_blocks += n_blocks
    if vector:
        STATS.keystream_vector_blocks += n_blocks
    memo_key = (cipher, counter, length, resolved)
    ks = _memo.get(memo_key)
    if ks is not None:
        STATS.keystream_reused_blocks += n_blocks
        return ks
    base = counter << 16
    if vector:
        ks = kernels.keystream(cipher, base, n_blocks)
    else:
        ks = b"".join(
            cipher.encrypt_block(struct.pack(">Q", base + i)) for i in range(n_blocks)
        )
    if len(ks) != length:
        ks = ks[:length]
    _memo[memo_key] = ks
    if len(_memo) > KEYSTREAM_MEMO_SIZE:
        del _memo[next(iter(_memo))]
    return ks


def ctr_encrypt(
    cipher: BlockCipher, counter: int, plaintext: bytes, backend: str | None = None
) -> bytes:
    """Encrypt ``plaintext`` under message ``counter``.

    ``counter`` is the message counter maintained at both ends; each
    message must use a fresh value under a given key or keystream reuse
    destroys confidentiality. Counter hygiene is the caller's job (see
    :class:`repro.protocol.forwarding.CounterState`). ``backend``
    optionally forces the keystream kernel backend for this call.
    """
    if not 0 <= counter < MAX_COUNTER:
        raise ValueError(f"counter must be in [0, 2**48), got {counter}")
    return xor_bytes(plaintext, _keystream(cipher, counter, len(plaintext), backend))


def ctr_decrypt(
    cipher: BlockCipher, counter: int, ciphertext: bytes, backend: str | None = None
) -> bytes:
    """Invert :func:`ctr_encrypt` (CTR is an involution given the counter)."""
    return ctr_encrypt(cipher, counter, ciphertext, backend)


def ctr_encrypt_many(
    cipher: BlockCipher,
    counters: "list[int] | tuple[int, ...]",
    messages: "list[bytes] | tuple[bytes, ...]",
    backend: str | None = None,
) -> list[bytes]:
    """Encrypt (or, CTR being an involution, decrypt) a burst of messages.

    Each ``messages[i]`` is processed under ``counters[i]`` exactly as
    :func:`ctr_encrypt` would — same counter-segment layout, same
    validation, byte-identical output — but the keystream for the whole
    burst is produced by **one** batched kernel dispatch
    (:func:`repro.crypto.kernels.keystream_segments`) instead of one per
    message. This is the cross-frame half of the data-plane hot path: a
    node forwarding a burst of sensor frames pays the kernel's fixed cost
    once.

    Falls back to the per-message path when the resolved backend is
    ``pure`` or the cipher has no kernel, so the ``pure``/``vector``
    parity contract extends to bursts.

    Raises:
        ValueError: length mismatch, a counter outside ``[0, 2**48)``, or
            a message longer than one counter segment.
    """
    if len(counters) != len(messages):
        raise ValueError(
            f"got {len(counters)} counters for {len(messages)} messages"
        )
    segments: list[tuple[int, int]] = []
    total_blocks = 0
    for counter, message in zip(counters, messages):
        if not 0 <= counter < MAX_COUNTER:
            raise ValueError(f"counter must be in [0, 2**48), got {counter}")
        n_blocks = -(-len(message) // cipher.block_size)
        if n_blocks > _MAX_BLOCKS:
            raise ValueError(
                f"message too long: {len(message)} bytes exceeds the counter segment"
            )
        segments.append((counter << 16, n_blocks))
        total_blocks += n_blocks
    STATS.keystream_blocks += total_blocks
    if total_blocks and kernels.use_vector(cipher.name, total_blocks, backend):
        STATS.keystream_vector_blocks += total_blocks
        streams = kernels.keystream_segments(cipher, segments)
    else:
        streams = [
            b"".join(
                cipher.encrypt_block(struct.pack(">Q", base + i)) for i in range(n)
            )
            for base, n in segments
        ]
    return [
        xor_bytes(message, ks[: len(message)] if len(ks) != len(message) else ks)
        for message, ks in zip(messages, streams)
    ]
