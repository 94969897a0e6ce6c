"""HELLO-flood attacks (Sec. VI).

Three variants the paper analyzes:

1. **During setup, without ``K_m``** — forged HELLOs fail authentication
   and are dropped ("since ... messages are authenticated this attack is
   not possible").
2. **Replayed HELLOs during setup** — a laptop-class attacker re-airs a
   legitimate HELLO with high power to grab distant nodes into one huge
   cluster. Replays carry a valid MAC, so nodes that have not yet decided
   will join — the reason the protocol's security argument leans on the
   *short duration* of the setup phase and on capture taking longer.
3. **During key refresh, with a captured cluster key** — the attacker
   broadcasts refresh/HELLO messages to grow her cluster. The rehash
   strategy gives her no message to send at all; the recluster strategy
   confines refresh within existing clusters, so she "cannot take control
   of more nodes than she already has".

The attacker transmits through a planted high-power node whose radio
range we model by wiring it adjacent to an arbitrary victim set (a
laptop-class radio out-powers motes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.protocol import messages

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol
    from repro.runtime.node import NodeRuntime


class HelloFloodAttacker:
    """A laptop-class transmitter injecting HELLO-type frames."""

    def __init__(self, deployed: "DeployedProtocol", position: Sequence[float]) -> None:
        self.deployed = deployed
        self.node: "NodeRuntime" = deployed.network.add_node(np.asarray(position, dtype=float))
        self.node.app = self
        self.recorded_hellos: list[bytes] = []
        self._monitoring = False

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """Opportunistically record legitimate HELLOs for replay."""
        if self._monitoring and frame and frame[0] == messages.HELLO:
            self.recorded_hellos.append(frame)

    def start_monitoring(self) -> None:
        """Listen for HELLO traffic (also via the global radio monitor, so
        distance is no obstacle — laptop-class receive antenna)."""
        self._monitoring = True
        self.deployed.network.radio.monitors.append(self._global_monitor)

    def _global_monitor(self, time: float, sender: int, frame: bytes) -> None:
        # Never record our own transmissions: replaying would otherwise
        # feed the recorder forever.
        if self._monitoring and sender != self.node.id and frame and frame[0] == messages.HELLO:
            self.recorded_hellos.append(frame)

    def flood_forged(self, count: int, rng) -> None:
        """Variant 1: HELLOs without ``K_m`` — random garbage bodies of the
        right shape. Every receiver should drop them on authentication."""
        for i in range(count):
            fake_id = int(rng.integers(1 << 20, 1 << 21))
            body = rng.integers(0, 256, size=4 + 16 + 8 + self.deployed.config.tag_len,
                                dtype="uint8").tobytes()
            frame = bytes([messages.HELLO]) + fake_id.to_bytes(4, "big") + body[4:]
            self.node.broadcast(frame)

    def replay_recorded(self) -> int:
        """Variant 2: re-air every recorded legitimate HELLO once.

        Returns how many frames were replayed. Whether any node falls for
        it depends on timing: after nodes decide their role, replays are
        rejected; after setup, they are dropped outright.
        """
        frames = list(self.recorded_hellos)  # snapshot: broadcasts may record
        for frame in frames:
            self.node.broadcast(frame)
        return len(frames)

    def forge_refresh(self, cid: int, stolen_key: bytes, epoch: int, rng) -> None:
        """Variant 3: with a captured cluster key, push a rogue refresh for
        ``cid``. Holders of the old key *will* accept it (the attacker
        legitimately owns that cluster) — the point the experiment makes is
        that she cannot extend beyond the clusters she already holds:
        refresh messages for clusters whose key she lacks cannot be forged.
        """
        rogue = rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        frame = messages.encode_refresh(stolen_key, cid, epoch, rogue, self.deployed.config.aead)
        self.node.broadcast(frame)

    def hijack_reelection(self, stolen_cid: int, stolen_key: bytes, epoch: int, rng) -> bytes:
        """Sec. VI's refresh-time HELLO flood, executed.

        During an *unconstrained* re-clustering ("reelect" strategy), the
        attacker beats the honest exponential timers by broadcasting a
        REELECT_HELLO immediately, sealed under a stolen cluster key and
        declaring herself the new head. Every node that holds that key —
        the stolen cluster's members *and* neighboring-cluster edge nodes
        — joins her cluster: she "could attract nodes belonging to
        neighboring clusters as well and form a new larger cluster with
        himself as a clusterhead". Returns the attack frame.
        """
        rogue_key = rng.integers(0, 256, size=16, dtype="uint8").tobytes()
        frame = messages.encode_reelect_hello(
            stolen_key,
            stolen_cid,
            self.node.id,
            epoch,
            rogue_key,
            self.deployed.config.aead,
        )
        self.node.broadcast(frame)
        return frame

    def wire_to_victims(self, victim_ids: list[int]) -> None:
        """Model laptop-class transmit power: make the attacker a radio
        neighbor of every node in ``victim_ids`` regardless of distance."""
        net = self.deployed.network
        adj = net._adjacency  # test/attack tooling reaches into the medium
        for vid in victim_ids:
            if vid not in adj[self.node.id]:
                adj[self.node.id].append(vid)
            if self.node.id not in adj[vid]:
                adj[vid].append(self.node.id)
