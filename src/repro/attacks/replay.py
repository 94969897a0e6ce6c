"""Replay attacks on the data plane (Sec. IV-C's freshness/replay goals).

The attacker records legitimate DATA frames off the air and re-transmits
them later, verbatim. Three defenses should stop her, all measurable in
the trace: the per-sender monotonic sequence check (``drop.data_replay``),
the τ freshness window (``drop.data_stale``), and — for frames that sneak
past both at the base station — the end-to-end counter, which never moves
backwards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.protocol import messages

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol
    from repro.runtime.node import NodeRuntime


class ReplayAttacker:
    """Records DATA frames globally, replays them from a planted node."""

    def __init__(self, deployed: "DeployedProtocol", position: Sequence[float]) -> None:
        self.deployed = deployed
        self.node: "NodeRuntime" = deployed.network.add_node(np.asarray(position, dtype=float))
        self.node.app = self
        self.recorded: list[bytes] = []
        deployed.network.radio.monitors.append(self._monitor)

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        """The attacker node itself needs no receive path."""

    def _monitor(self, time: float, sender: int, frame: bytes) -> None:
        if sender != self.node.id and frame and frame[0] == messages.DATA:
            self.recorded.append(frame)

    def replay_all(self) -> int:
        """Re-air every recorded DATA frame once; returns the count."""
        frames = list(self.recorded)
        for frame in frames:
            self.node.broadcast(frame)
        return len(frames)
