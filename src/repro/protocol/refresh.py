"""Cluster-key refresh orchestration (Sec. IV-C / VI).

Two strategies, selected by ``ProtocolConfig.refresh_strategy``:

* ``"rehash"`` — every node (and the base station) replaces each stored
  cluster key ``K`` with ``F(K)`` locally. Zero messages, nothing for a
  HELLO-flood adversary to inject into; the variant Sec. VI recommends.
* ``"recluster"`` — one member per existing cluster generates a fresh
  random key and broadcasts it sealed under the *old* cluster key.
  Constrained within clusters ("not allow new clusters to be created"),
  which is the paper's first defense against refresh-time HELLO floods.

Both are driven by a :class:`RefreshCoordinator`, which owns the epoch
counter and knows how to reach every agent and the base station.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol


class RefreshCoordinator:
    """Drives periodic key refresh over a deployed protocol."""

    def __init__(self, deployed: "DeployedProtocol") -> None:
        self.deployed = deployed
        self.epoch = 0

    def refresh_once(self) -> int:
        """Run one refresh round per the configured strategy; returns epoch.

        Recluster-mode broadcasts are scheduled on the simulator and are
        applied as it runs; callers outside an event handler should use
        :meth:`run_round` instead, which also settles the deliveries.
        """
        strategy = self.deployed.config.refresh_strategy
        if strategy == "rehash":
            self._rehash()
        elif strategy == "recluster":
            self._recluster()
        else:
            self._reelect()
        trace = self.deployed.network.trace
        trace.count("refresh.round")
        trace.record(
            self.deployed.now(),
            "refresh.round",
            phase="refresh",
            epoch=self.epoch,
            strategy=strategy,
        )
        return self.epoch

    def run_round(self, settle_s: float = 1.0) -> int:
        """:meth:`refresh_once`, then run the simulator to settle deliveries.

        Only callable from outside the event loop (not from a scheduled
        callback — the engine is not re-entrant). The "reelect" strategy
        needs its full election phase, so the effective settle time is at
        least the configured cluster-phase duration plus the margin.
        """
        epoch = self.refresh_once()
        if self.deployed.config.refresh_strategy == "reelect":
            settle_s = max(settle_s, self.deployed.config.setup_end_s + 0.1)
        self.deployed.run_for(settle_s)
        return epoch

    def _rehash(self) -> None:
        """In-place ``K <- F(K)`` on every node and the base station."""
        self.epoch += 1
        for agent in self.deployed.agents.values():
            if agent.node.alive:
                agent.apply_hash_refresh()
        self.deployed.bs_agent.apply_hash_refresh()

    def _recluster(self) -> None:
        """Fresh random key per cluster, distributed under the old key.

        The initiator is the original head if alive, else the
        lowest-numbered live member (any single member works: all hold the
        old key). The broadcast reaches all holders of the old key —
        cluster members *and* edge nodes of neighboring clusters, who
        update their stored copy the same way.
        """
        self.epoch += 1
        key_rng = self.deployed.network.rng.stream("refresh-keys")
        clusters: dict[int, list[int]] = {}
        for nid, agent in self.deployed.agents.items():
            st = agent.state
            if agent.node.alive and st.cid is not None and st.keyring.has(st.cid):
                clusters.setdefault(st.cid, []).append(nid)
        for cid, members in sorted(clusters.items()):
            initiator_id = cid if cid in members else min(members)
            initiator = self.deployed.agents[initiator_id]
            new_key = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()
            initiator.originate_refresh(new_key, self.epoch)

    def _reelect(self) -> None:
        """The paper's first refresh proposal: a full new election under
        current cluster keys ("form new clusters and new cluster keys").

        Sec. VI shows this variant is HELLO-floodable by an attacker
        holding a stolen cluster key — it is provided so the experiments
        can demonstrate the attack; deployments should prefer the other
        strategies. The base station is handed the resulting key map at
        the end of the phase (standing in for the untracked election
        broadcasts).
        """
        self.epoch += 1
        config = self.deployed.config
        for agent in self.deployed.agents.values():
            if agent.node.alive:
                agent.begin_reelection(self.epoch, config.cluster_phase_duration_s)
        # Election + link phase + settle, mirroring the initial setup.
        self.deployed.schedule(config.setup_end_s, self._finish_reelection)

    def _finish_reelection(self) -> None:
        for agent in self.deployed.agents.values():
            if agent.node.alive:
                agent.finish_reelection()
        # Hand the BS the post-election key map and fix the gradient.
        keys: dict[int, bytes] = {}
        for agent in self.deployed.agents.values():
            st = agent.state
            if st.cid is not None and st.keyring.has(st.cid):
                keys[st.cid] = st.keyring.get(st.cid).material
        self.deployed.bs_agent.install_cluster_keys(keys)
        self.deployed.assign_gradient()

    def schedule_periodic(self, period_s: float, rounds: int) -> None:
        """Arm ``rounds`` refresh rounds every ``period_s`` seconds of sim time."""
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        for k in range(1, rounds + 1):
            self.deployed.schedule(period_s * k, self._periodic_tick)

    def _periodic_tick(self) -> None:
        self.refresh_once()
