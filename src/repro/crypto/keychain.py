"""One-way hash key chains for authenticated revocation (Sec. IV-D).

The base station generates ``K_n`` at random and computes
``K_{l-1} = F(K_l)`` down to the commitment ``K_0``, which is preloaded on
every node. Revocation command ``l`` carries ``K_l``; a node accepts iff
applying ``F`` the right number of times to ``K_l`` reproduces its stored
commitment, then advances the commitment. An adversary who has seen
``K_0..K_l`` cannot produce ``K_{l+1}`` without inverting ``F``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.crypto.kdf import KEY_LEN, chain_step
from repro.util.bytesutil import constant_time_eq


class KeyChain:
    """Base-station side: holds the full chain, reveals keys forward."""

    def __init__(self, length: int, seed: bytes | None = None) -> None:
        """Generate a chain of ``length`` usable keys ``K_1..K_n``.

        ``seed`` fixes ``K_n`` for reproducible simulations; production use
        leaves it ``None`` for an OS-random tail.
        """
        if length < 1:
            raise ValueError(f"chain length must be >= 1, got {length}")
        tail = seed if seed is not None else os.urandom(KEY_LEN)
        if len(tail) != KEY_LEN:
            raise ValueError(f"seed must be {KEY_LEN} bytes, got {len(tail)}")
        keys = [tail]
        for _ in range(length):
            keys.append(chain_step(keys[-1]))
        # keys[0] is K_n ... keys[length] is K_0; store in index order.
        self._keys = list(reversed(keys))
        self._next_index = 1
        self.length = length

    @property
    def commitment(self) -> bytes:
        """``K_0``, preloaded to all nodes before deployment."""
        return self._keys[0]

    @property
    def remaining(self) -> int:
        """How many unrevealed keys are left."""
        return self.length - self._next_index + 1

    def reveal_next(self) -> tuple[int, bytes]:
        """Reveal the next chain key ``(index, K_index)``.

        Raises:
            RuntimeError: once the chain is exhausted; the deployment must
                provision a new chain (out of scope of the paper).
        """
        if self._next_index > self.length:
            raise RuntimeError("key chain exhausted")
        idx = self._next_index
        self._next_index += 1
        return idx, self._keys[idx]

    def key_at(self, index: int) -> bytes:
        """Direct access for tests/attack tooling (``0 <= index <= n``)."""
        return self._keys[index]


@dataclass
class ChainVerifier:
    """Node side: stores only the latest verified commitment."""

    commitment: bytes
    index: int = 0

    def verify(self, index: int, key: bytes) -> bool:
        """Check a revealed key against the stored commitment.

        Accepts any ``index`` greater than the current one (later keys
        verify even if intermediate revocation messages were lost), walking
        ``F`` the ``index - self.index`` intervening steps. On success the
        commitment advances so replays of old keys are rejected.
        """
        steps = index - self.index
        if steps <= 0:
            return False
        candidate = key
        for _ in range(steps):
            candidate = chain_step(candidate)
        if not constant_time_eq(candidate, self.commitment):
            return False
        self.commitment = key
        self.index = index
        return True

    def is_duplicate(self, index: int, key: bytes) -> bool:
        """True iff ``key`` is the genuine chain key ``index`` already
        accepted (an echo of a flood this node has seen).

        Walks ``F`` from the stored commitment ``self.index - index``
        steps; a forged key at an old index does not match.
        """
        if not 0 < index <= self.index:
            return False
        candidate = self.commitment
        for _ in range(self.index - index):
            candidate = chain_step(candidate)
        return constant_time_eq(candidate, key)
