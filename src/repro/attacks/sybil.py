"""Sybil attacks (Sec. VI).

"Since every node shares a unique symmetric key with the trusted base
station, a single node cannot present multiple identities." The attacker
below fabricates DATA traffic under many identities without holding any
legitimate key: hop layers are forged under random keys (dropped by
honest forwarders as unauthenticatable), and even when planted inside a
compromised cluster, the end-to-end layer for each fake identity fails at
the base station because no ``K_i`` exists for it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.protocol.forwarding import build_inner, wrap_hop

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol
    from repro.runtime.node import NodeRuntime


class SybilAttacker:
    """Emits DATA frames under many fabricated identities."""

    def __init__(
        self,
        deployed: "DeployedProtocol",
        position: Sequence[float],
        stolen_cluster_keys: dict[int, bytes] | None = None,
    ) -> None:
        self.deployed = deployed
        self.node: "NodeRuntime" = deployed.network.add_node(np.asarray(position, dtype=float))
        self.node.app = self
        self.stolen = stolen_cluster_keys or {}
        self.identities_used: set[int] = set()
        self._seq = 1

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Pure injector."""

    def emit(self, identity: int, reading: bytes, cid: int, rng) -> None:
        """Send one forged reading as ``identity`` claiming cluster ``cid``.

        Uses the stolen key for ``cid`` when available (insider Sybil),
        otherwise a random key (outsider Sybil). The inner envelope is
        "encrypted" under a random key either way — the attacker has no
        ``K_i`` for a fabricated identity.
        """
        fake_node_key = rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        c1 = build_inner(identity, reading, fake_node_key, self._seq, self.deployed.config.aead)
        hop_key = self.stolen.get(cid)
        if hop_key is None:
            hop_key = rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        frame = wrap_hop(
            hop_key,
            cid,
            identity,
            self._seq,
            0x7FFF,
            self.node.now(),
            c1,
            self.deployed.config.aead,
        )
        self._seq += 1
        self.identities_used.add(identity)
        self.node.broadcast(frame)

    def emit_many(self, n_identities: int, cid: int, rng) -> None:
        """Blast ``n_identities`` distinct fabricated sources at ``cid``."""
        for k in range(n_identities):
            identity = int(rng.integers(1 << 24, 1 << 25))
            self.emit(identity, b"sybil", cid, rng)
