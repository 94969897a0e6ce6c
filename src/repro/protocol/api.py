"""High-level convenience API.

:class:`SecureSensorNetwork` bundles deployment, key setup, the data
plane and lifecycle maintenance behind a handful of methods, so the
examples (and downstream users) never touch agents directly::

    from repro import SecureSensorNetwork

    ssn = SecureSensorNetwork.deploy(n=500, density=10, seed=7)
    ssn.send_reading(source=42, data=b"temp=21.5")
    ssn.run(5.0)
    for reading in ssn.readings():
        print(reading.source, reading.data)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.protocol.addition import JoiningNodeAgent, deploy_new_node, finalize_join
from repro.protocol.agent import ProtocolAgent
from repro.protocol.base_station import DeliveredReading
from repro.protocol.config import JOIN_RESPONSE_JITTER_S, JOIN_WINDOW_S, ProtocolConfig
from repro.protocol.metrics import SetupMetrics
from repro.protocol.refresh import RefreshCoordinator
from repro.protocol.setup import DeployedProtocol, deploy as _deploy, run_key_setup
from repro.sim.network import Network


class SecureSensorNetwork:
    """A deployed, operational secure sensor network."""

    def __init__(self, deployed: DeployedProtocol, metrics: SetupMetrics) -> None:
        self._deployed = deployed
        self.setup_metrics = metrics
        self._refresh = RefreshCoordinator(deployed)

    # -- construction --------------------------------------------------

    @classmethod
    def deploy(
        cls,
        n: int,
        density: float,
        seed: int = 0,
        config: ProtocolConfig | None = None,
        **deploy_kwargs,
    ) -> "SecureSensorNetwork":
        """Deploy ``n`` sensors at the given mean density and run key setup
        (``deploy_kwargs`` as for :func:`repro.protocol.setup.deploy`)."""
        deployed, metrics = _deploy(n, density, seed=seed, config=config, **deploy_kwargs)
        return cls(deployed, metrics)

    @classmethod
    def from_network(
        cls, network: Network, config: ProtocolConfig | None = None
    ) -> "SecureSensorNetwork":
        """Run key setup on an externally-built :class:`Network`."""
        deployed, metrics = run_key_setup(network, config)
        return cls(deployed, metrics)

    # -- accessors ------------------------------------------------------

    @property
    def network(self) -> Network:
        """The underlying simulation network."""
        return self._deployed.network

    @property
    def deployed(self) -> DeployedProtocol:
        """The full deployment (agents, base station, key registry)."""
        return self._deployed

    @property
    def config(self) -> ProtocolConfig:
        """The active protocol configuration."""
        return self._deployed.config

    def agent(self, node_id: int) -> ProtocolAgent:
        """Protocol agent of one sensor."""
        return self._deployed.agents[node_id]

    def node_ids(self) -> list[int]:
        """Ids of all provisioned sensors."""
        return sorted(self._deployed.agents)

    # -- data plane ------------------------------------------------------

    def send_reading(self, source: int, data: bytes) -> None:
        """Originate a reading at node ``source`` (one broadcast)."""
        self._deployed.agents[source].send_reading(data)

    def run(self, duration_s: float) -> None:
        """Advance protocol time by ``duration_s``."""
        self._deployed.run_for(duration_s)

    def readings(self) -> list[DeliveredReading]:
        """Everything the base station has accepted so far."""
        return self._deployed.bs_agent.delivered

    def enable_fusion(self, filter_factory) -> None:
        """Attach a fresh fusion filter (from ``filter_factory()``) to every node.

        Meaningful with ``end_to_end_encryption=False``; see
        :mod:`repro.protocol.aggregation`.
        """
        for agent in self._deployed.agents.values():
            agent.fusion = filter_factory()

    # -- maintenance ------------------------------------------------------

    def revoke_node(self, node_id: int) -> list[int]:
        """Evict a compromised node: revoke every cluster whose key it held.

        Models Sec. IV-D with the detection mechanism abstracted away
        ("we assume the existence of a detection mechanism that informs
        the base station about compromised nodes"): the base station is
        told which node is compromised, looks up the clusters it can
        reach — its own plus neighboring ones — and revokes them all.
        Returns the revoked cluster ids.
        """
        agent = self._deployed.agents[node_id]
        cids = list(agent.state.keyring.cluster_ids())
        # The node itself is no longer trusted: its end-to-end key is
        # dropped from the base station's registry, so captured K_i
        # material cannot authenticate readings anymore.
        self._deployed.registry.node_keys.pop(node_id, None)
        if cids:
            self._deployed.bs_agent.revoke_clusters(cids)
            self.run(self.config.settle_margin_s + 2.0)
        return cids

    def refresh_keys(self) -> int:
        """One key-refresh round (strategy per config); returns the epoch."""
        return self._refresh.run_round()

    @property
    def refresh_epoch(self) -> int:
        """Refresh rounds performed so far."""
        return self._refresh.epoch

    def add_node(self, position: Sequence[float]) -> ProtocolAgent:
        """Deploy a replacement node at ``position`` and complete its join.

        Raises:
            RuntimeError: if no surrounding cluster answered with a
                verifiable response (e.g. out of range of all clusters).
        """
        joiner: JoiningNodeAgent = deploy_new_node(
            self._deployed, np.asarray(position, dtype=float), hash_epoch=self._hash_epochs()
        )
        self.run(JOIN_WINDOW_S + JOIN_RESPONSE_JITTER_S + 0.5)
        return finalize_join(self._deployed, joiner)

    def _hash_epochs(self) -> int:
        """Hash-refresh epochs applied so far (0 under recluster strategy)."""
        if self.config.refresh_strategy == "rehash":
            return self._refresh.epoch
        return 0
