"""Node replication / clone insertion (Sec. II, "Resilience to Node
Replication").

The claim under test: "even if a node is compromised and be used to
populate the network with its clones, key material from one part of the
network cannot be used to disrupt communications to some other part of
it." A :class:`CloneAgent` carries a captured node's exact key material
and tries to inject traffic wherever it is planted; acceptance is only
possible where the stolen cluster keys are actually honored — the
captured node's own neighborhood.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.attacks.adversary import CaptureResult
from repro.protocol.forwarding import build_inner, wrap_hop

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.config import ProtocolConfig
    from repro.protocol.setup import DeployedProtocol
    from repro.runtime.node import NodeRuntime


class CloneAgent:
    """A replicated node running on stolen key material."""

    def __init__(
        self,
        node: "NodeRuntime",
        config: "ProtocolConfig",
        capture: CaptureResult,
    ) -> None:
        self.node = node
        self.config = config
        self.capture = capture
        # Continue the victim's counter sequences: indistinguishable from
        # the real node to every honest check.
        self._seq = capture.hop_seq + 1
        self._e2e_counter = capture.e2e_counter
        self.injected = 0

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Clones stay silent on receive (pure injectors)."""

    def inject_reading(self, reading: bytes, cid: int | None = None) -> None:
        """Forge a hop-layer frame under a stolen cluster key.

        Uses the victim's identity as hop sender and, when Step 1 material
        was captured, a validly-encrypted inner envelope — the strongest
        clone. ``cid`` defaults to the victim's own cluster.
        """
        cid = cid if cid is not None else self.capture.own_cid
        if cid is None or cid not in self.capture.cluster_keys:
            raise ValueError(f"no stolen key for cluster {cid}")
        if self.capture.node_key is not None:
            self._e2e_counter += 1
            c1 = build_inner(
                self.capture.node_id,
                reading,
                self.capture.node_key,
                self._e2e_counter,
                self.config.aead,
            )
        else:  # pragma: no cover - node keys are always extractable
            c1 = build_inner(self.capture.node_id, reading, None, None, self.config.aead)
        frame = wrap_hop(
            self.capture.cluster_keys[cid],
            cid,
            self.capture.node_id,
            self._seq,
            0x7FFF,  # claim maximal distance so every receiver is "downhill"
            self.node.now(),
            c1,
            self.config.aead,
        )
        self._seq += 1
        self.injected += 1
        self.node.broadcast(frame)


def insert_clone(
    deployed: "DeployedProtocol",
    capture: CaptureResult,
    position: Sequence[float],
) -> CloneAgent:
    """Plant a clone of a captured node at ``position``.

    The clone is a real radio participant: its broadcasts reach whatever
    honest nodes are in range of ``position``.
    """
    node = deployed.network.add_node(np.asarray(position, dtype=float))
    agent = CloneAgent(node, deployed.config, capture)
    node.app = agent
    return agent
