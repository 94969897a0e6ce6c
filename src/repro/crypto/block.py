"""Common block-cipher interface and registry.

The protocol layer never names a concrete cipher; it asks the registry for
one by name (``ProtocolConfig.cipher``). Both registered ciphers expose the
same 8-byte-block / 16-byte-key shape, so higher layers need no per-cipher
logic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Protocol

from repro.crypto.rc5 import Rc5
from repro.crypto.speck import Speck64_128
from repro.crypto.xtea import Xtea


class BlockCipher(Protocol):
    """Structural interface every registered cipher satisfies."""

    block_size: int
    key_size: int
    name: str

    def encrypt_block(self, plaintext: bytes) -> bytes:  # pragma: no cover
        """Encrypt exactly one block."""
        ...

    def decrypt_block(self, ciphertext: bytes) -> bytes:  # pragma: no cover
        """Decrypt exactly one block."""
        ...


_CIPHERS: dict[str, type] = {
    Speck64_128.name: Speck64_128,
    Xtea.name: Xtea,
    Rc5.name: Rc5,
    # convenience aliases
    "speck": Speck64_128,
    "rc5": Rc5,
}


def available_ciphers() -> tuple[str, ...]:
    """Canonical names of registered ciphers."""
    return (Speck64_128.name, Xtea.name, Rc5.name)


def is_registered(name: str) -> bool:
    """Whether ``name`` (a canonical name or an alias) selects a cipher."""
    return name in _CIPHERS


@lru_cache(maxsize=4096)
def _cached_cipher(name: str, key: bytes) -> BlockCipher:
    return _CIPHERS[name](key)


def get_cipher(name: str, key: bytes) -> BlockCipher:
    """Instantiate a registered cipher keyed with ``key``.

    Instances are cached per (name, key): the ciphers are immutable after
    key scheduling, and a sensor network re-uses a handful of keys for
    thousands of frames, so skipping the Python-level key schedule on
    every seal/open is the single largest speedup in the hot path
    (measured with cProfile on a 2500-node setup).

    Raises:
        KeyError: for an unknown cipher name.
    """
    if name not in _CIPHERS:
        raise KeyError(f"unknown cipher {name!r}; available: {available_ciphers()}")
    return _cached_cipher(name, key)
