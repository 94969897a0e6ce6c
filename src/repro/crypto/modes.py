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
scalar per-block loop remains as the ``pure`` reference oracle, reached
only through :func:`repro.crypto.kernels.set_backend`.

Nothing here is memoised. The batched kernels make the keystreams of a
sequential run of message counters in one lane pass and serve the run
from it (:func:`repro.crypto.kernels.message_keystream`); the bytes and
the ``STATS`` counts of every call are those of computing it alone. The
receivers of a broadcast share one keystream through the open memo one
level up (:mod:`repro.crypto.aead`), which keeps the whole verified
open — tag and plaintext — rather than the keystream alone.
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

def message_counter(value: int) -> int:
    """Validate and bless a fixed message counter (the approved constructor).

    Protocol code allocates counters from
    :meth:`repro.protocol.state.NodeState.next_hop_seq` and
    :meth:`~repro.protocol.state.NodeState.next_e2e_counter`; benchmarks, tests and
    tools that genuinely need a *fixed* counter construct it here so the
    range check runs and static analysis (ldplint CRYPT002) can tell a
    deliberate fixed counter from an accidental keystream-reusing literal.

    Raises:
        ValueError: if ``value`` is outside ``[0, 2**48)``.
    """
    if not 0 <= value < MAX_COUNTER:
        raise ValueError(f"counter must be in [0, 2**48), got {value}")
    return value


def _keystream(cipher: BlockCipher, counter: int, length: int) -> bytes:
    """Generate ``length`` keystream bytes for message ``counter``."""
    n_blocks = -(-length // cipher.block_size)
    if n_blocks > _MAX_BLOCKS:
        raise ValueError(f"message too long: {length} bytes exceeds the counter segment")
    vector = kernels.use_vector(cipher.name, n_blocks)
    STATS.keystream_blocks += n_blocks
    if vector:
        STATS.keystream_vector_blocks += n_blocks
    if vector:
        ks = kernels.message_keystream(cipher, counter, n_blocks)
    else:
        base = counter << 16
        ks = b"".join(
            cipher.encrypt_block(struct.pack(">Q", base + i)) for i in range(n_blocks)
        )
    if len(ks) != length:
        ks = ks[:length]
    return ks


def ctr_encrypt(cipher: BlockCipher, counter: int, plaintext: bytes) -> bytes:
    """Encrypt ``plaintext`` under message ``counter``.

    ``counter`` is the message counter maintained at both ends; each
    message must use a fresh value under a given key or keystream reuse
    destroys confidentiality. Counter hygiene is the caller's job (see
    :meth:`repro.protocol.state.NodeState.next_hop_seq` and
    :meth:`~repro.protocol.state.NodeState.next_e2e_counter`).
    """
    if not 0 <= counter < MAX_COUNTER:
        raise ValueError(f"counter must be in [0, 2**48), got {counter}")
    return xor_bytes(plaintext, _keystream(cipher, counter, len(plaintext)))


def ctr_decrypt(cipher: BlockCipher, counter: int, ciphertext: bytes) -> bytes:
    """Invert :func:`ctr_encrypt` (CTR is an involution given the counter)."""
    return ctr_encrypt(cipher, counter, ciphertext)
