"""The Network: deployment, nodes, base station, radio and fabric.

Builds every deployment object from a deployment and a master seed: the
named RNG streams, the adjacency map (including base-station links), the
radio link model and one :class:`~repro.runtime.node.NodeRuntime` per
node on the chosen transport — the in-process
:class:`~repro.runtime.loopback.LoopbackTransport` unless another fabric
is passed. The trace is the transport's. Supports post-deployment node
addition (Sec. IV-E of the paper) and mid-run movement by changing the
adjacency in place; every fabric reads it on each send.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.energy import EnergyMeter, EnergyModel
from repro.sim.radio import Radio, RadioConfig
from repro.sim.rng import RngManager
from repro.sim.topology import Deployment

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import NodeRuntime
    from repro.runtime.transport import Transport

#: Link-layer id of the base station. Ordinary nodes are numbered from 1 so
#: that id 0 stays free as an explicit "unset" sentinel in wire formats.
BS_ID = 0
FIRST_NODE_ID = 1


class Network:
    """A deployed sensor network plus its base station, on one transport."""

    def __init__(
        self,
        deployment: Deployment,
        seed: int = 0,
        radio_config: RadioConfig | None = None,
        energy_model: EnergyModel | None = None,
        bs_position: np.ndarray | None = None,
        transport: "Transport | None" = None,
    ) -> None:
        """``transport`` hosts the nodes (default: a fresh loopback
        fabric)."""
        # Local imports: the runtime package builds on this module.
        from repro.runtime.loopback import LoopbackTransport
        from repro.runtime.node import NodeRuntime

        self.deployment = deployment
        self.rng = RngManager(seed)
        self.transport = transport if transport is not None else LoopbackTransport()
        self.trace = self.transport.trace
        self.energy_model = energy_model or EnergyModel()
        self.radio = Radio(self, radio_config or RadioConfig(), self.rng.stream("radio"))

        self._adjacency: dict[int, list[int]] = {}
        for i in range(deployment.n):
            self._adjacency[i + FIRST_NODE_ID] = [
                int(j) + FIRST_NODE_ID for j in deployment.neighbors[i]
            ]
        # Base station: field center by default, mains-powered.
        if bs_position is None:
            bs_position = np.array([deployment.side / 2.0, deployment.side / 2.0])
        bs_neighbors = [
            int(j) + FIRST_NODE_ID
            for j in deployment.nodes_within(bs_position, deployment.radius)
        ]
        self._adjacency[BS_ID] = bs_neighbors
        for nid in bs_neighbors:
            self._adjacency[nid].append(BS_ID)
        self.transport.attach(self)

        # Ordinary sensors (deployment index i -> node id i + FIRST_NODE_ID),
        # then the base station.
        self.nodes: dict[int, NodeRuntime] = {}
        for nid in (*range(FIRST_NODE_ID, deployment.n + FIRST_NODE_ID), BS_ID):
            position = bs_position if nid == BS_ID else deployment.positions[nid - FIRST_NODE_ID]
            self.nodes[nid] = NodeRuntime(
                self.transport, nid, position, EnergyMeter(self.energy_model)
            )
        self.bs = self.nodes[BS_ID]

        self._next_node_id = deployment.n + FIRST_NODE_ID
        # Nodes outside the deployment's spatial index (the BS and any
        # post-deployment joins): add_node range-checks these directly.
        self._extra_ids: list[int] = [BS_ID]
        self._sensor_ids: list[int] | None = None

    @classmethod
    def build(
        cls,
        n: int,
        density: float,
        seed: int = 0,
        radius: float = 10.0,
        radio_config: RadioConfig | None = None,
        energy_model: EnergyModel | None = None,
        transport: "Transport | None" = None,
    ) -> "Network":
        """Deploy ``n`` nodes uniformly at the requested mean density."""
        rng = RngManager(seed)
        deployment = Deployment.random_uniform(n, density, rng.stream("deployment"), radius)
        return cls(
            deployment,
            seed=seed,
            radio_config=radio_config,
            energy_model=energy_model,
            transport=transport,
        )

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: int) -> "NodeRuntime":
        """Node by link-layer id (including the base station)."""
        return self.nodes[node_id]

    def adjacency(self, node_id: int) -> list[int]:
        """Radio neighbors of ``node_id`` (includes BS where in range)."""
        return self._adjacency[node_id]

    def sensor_ids(self) -> list[int]:
        """Ids of ordinary sensors (excludes the base station), sorted.

        Cached (and invalidated by :meth:`add_node`) — this is hot via
        :meth:`alive_sensor_ids`. Callers must not mutate the result.
        """
        if self._sensor_ids is None:
            self._sensor_ids = sorted(nid for nid in self.nodes if nid != BS_ID)
        return self._sensor_ids

    def alive_sensor_ids(self) -> list[int]:
        """Ids of sensors still alive."""
        return [nid for nid in self.sensor_ids() if self.nodes[nid].alive]

    # -- dynamic membership (Sec. IV-E) -------------------------------------

    def add_node(self, position: np.ndarray) -> "NodeRuntime":
        """Deploy one new sensor at ``position`` after initial rollout.

        Adjacency is extended symmetrically and the node comes up on the
        network's transport; the protocol-level join handshake is
        :mod:`repro.protocol.addition`'s job.
        """
        from repro.runtime.node import NodeRuntime  # local import: see __init__

        nid = self._next_node_id
        self._next_node_id += 1
        position = np.asarray(position, dtype=float)
        node = NodeRuntime(self.transport, nid, position, EnergyMeter(self.energy_model))
        self.nodes[nid] = node
        radius = self.deployment.radius
        # Original deployment: one cell-grid disk query instead of an
        # all-nodes distance scan. The BS and earlier joins are the only
        # nodes outside the index; check that handful directly.
        neighbors = [
            int(j) + FIRST_NODE_ID
            for j in self.deployment.nodes_within(position, radius)
        ]
        for other_id in self._extra_ids:
            other = self.nodes[other_id]
            if float(np.linalg.norm(other.position - position)) <= radius:
                neighbors.append(other_id)
        for other_id in neighbors:
            self._adjacency[other_id].append(nid)
        self._adjacency[nid] = neighbors
        self._extra_ids.append(nid)
        self._sensor_ids = None
        return node

    def update_topology(
        self,
        positions: dict[int, np.ndarray],
        adjacency: dict[int, list[int]],
    ) -> None:
        """Apply mid-run node movement (mobility models, Sec. IV-E regime).

        ``positions`` maps moved node ids to their new coordinates;
        ``adjacency`` replaces the neighbor lists of every node whose
        links changed (callers must pass symmetric updates — both
        endpoints of every changed link — as
        :class:`repro.sim.mobility.MobileTopology` deltas do). Positions
        of original deployment nodes are written back into the
        deployment array and its spatial index is invalidated, so
        post-move joins (:meth:`add_node`) see the moved field.
        """
        deployment = self.deployment
        for nid, position in positions.items():
            moved = np.asarray(position, dtype=float)
            self.nodes[nid].position = moved
            index = nid - FIRST_NODE_ID
            if nid != BS_ID and 0 <= index < deployment.n:
                deployment.positions[index] = moved
        for nid, neighbors in adjacency.items():
            self._adjacency[nid] = list(neighbors)
        if positions:
            deployment.invalidate_index()

    def hop_gradient(self) -> dict[int, int]:
        """Hop count to the base station for every node id (-1 unreachable)."""
        hops = {BS_ID: 0}
        frontier = [BS_ID]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v not in hops and self.nodes[v].alive:
                        hops[v] = level
                        nxt.append(v)
            frontier = nxt
        for nid in self.nodes:
            hops.setdefault(nid, -1)
        return hops
