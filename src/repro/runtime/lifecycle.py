"""Lifecycle runtime: mobility, sustained churn, bounded re-clustering.

The paper's evaluation deploys a static field once and measures the
key-setup phase. Real deployments live longer than that: nodes drift
(Sec. VI explicitly targets "mobile nodes joining and leaving"), die,
get compromised and revoked, and the cluster-key fabric must converge
back to an operational state each time. This module composes the pieces
the previous milestones built — the live runtime
(:mod:`repro.runtime.cluster`), fault injection
(:mod:`repro.runtime.faults`), node addition
(:mod:`repro.protocol.addition`), hash-chain revocation and key refresh
(:mod:`repro.protocol.refresh`) and the gateway query plane
(:mod:`repro.gateway.store`) — into one long-horizon scenario:

* :class:`MobilityDriver` steps a seeded mobility model
  (:mod:`repro.sim.mobility`) on the deployment clock and writes each
  topology delta through to the live network (positions, adjacency,
  gradient);
* :class:`ChurnDriver` schedules sustained join / leave / revoke /
  refresh events against the running deployment;
* :class:`ConvergenceTracker` samples cluster-membership health —
  orphaned-node dwell time, time-to-re-cluster, sliding-window delivery
  — as ``lifecycle.*`` telemetry;
* :func:`run_churn` wires all three around a
  :class:`~repro.workloads.traffic.ContinuousReporting` workload and
  judges the run against the scenario's documented convergence bounds.

``repro churn --assert-convergence`` is the CLI entry point; the
``churn-smoke`` CI job pins the acceptance scenario (continuous waypoint
motion, >= 5% node churn, 10% link loss) and requires it to converge
with reliability + refresh on and to fail with them off. Methodology
notes live in docs/RUNTIME.md and docs/BENCHMARKS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.gateway.store import GatewayStateStore
from repro.protocol.addition import deploy_new_node, finalize_join
from repro.protocol.config import JOIN_RESPONSE_JITTER_S, JOIN_WINDOW_S, ProtocolConfig
from repro.protocol.refresh import RefreshCoordinator
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.sim.mobility import MOBILITY_MODELS, MobileTopology, build_mobility_model
from repro.sim.network import Network
from repro.workloads.traffic import ContinuousReporting

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.addition import JoiningNodeAgent
    from repro.protocol.agent import ProtocolAgent
    from repro.protocol.setup import DeployedProtocol

__all__ = [
    "MobilityDriver",
    "ChurnDriver",
    "ConvergenceTracker",
    "ChurnScenario",
    "ChurnResult",
    "run_churn",
]


class MobilityDriver:
    """Steps a mobility model and writes deltas through to a live network.

    Every ``step_s`` of protocol time the model advances, the
    :class:`~repro.sim.mobility.MobileTopology` computes the exact edge
    delta, and the network is updated: node positions, the adjacency
    every fabric reads on send, and — only when links actually changed —
    a fresh hop gradient. BS and joined-but-static nodes live in the
    topology without being in the model, so their links still follow
    everyone else's motion.
    """

    def __init__(
        self,
        deployed: "DeployedProtocol",
        topology: MobileTopology,
        model: object,
        step_s: float = 1.0,
    ) -> None:
        """``model`` is any object with ``step(dt) -> {id: position}``
        (see :func:`repro.sim.mobility.build_mobility_model`)."""
        if step_s <= 0:
            raise ValueError("step_s must be > 0")
        self._deployed = deployed
        self._topology = topology
        self._model = model
        self.step_s = step_s
        self._running = False
        self.steps = 0
        self.links_added = 0
        self.links_removed = 0

    def start(self) -> None:
        """Begin stepping on the deployment's clock."""
        self._running = True
        self._deployed.schedule(self.step_s, self._step)

    def stop(self) -> None:
        """Stop stepping (pending step callbacks become no-ops)."""
        self._running = False

    def _step(self) -> None:
        if not self._running:
            return
        live = self._deployed.network
        trace = live.trace
        moved = self._model.step(self.step_s)  # type: ignore[attr-defined]
        moved = {nid: pos for nid, pos in moved.items() if nid in self._topology}
        delta = self._topology.move(moved)
        self.steps += 1
        trace.count("lifecycle.mobility.steps")
        positions = {
            nid: self._topology.position_of(nid).copy() for nid in moved
        }
        adjacency: dict[int, list[int]] = {}
        if delta.changed:
            adjacency = self._topology.neighbor_map(delta.touched_ids())
            self.links_added += len(delta.added)
            self.links_removed += len(delta.removed)
            trace.count("lifecycle.mobility.links_added", len(delta.added))
            trace.count("lifecycle.mobility.links_removed", len(delta.removed))
        live.update_topology(positions, adjacency)
        if delta.changed:
            self._deployed.assign_gradient()
        self._deployed.schedule(self.step_s, self._step)


class ChurnDriver:
    """Schedules sustained join / leave / revoke / refresh events.

    Event times are drawn up front from a dedicated seeded stream, so a
    scenario's churn timeline is deterministic regardless of what the
    protocol does in between. Joins ride the paper's node-addition
    handshake (:mod:`repro.protocol.addition`) with the hash-refresh
    epoch applied; a join whose window closes unanswered powers the node
    down rather than leaving it orphaned forever. Revocations follow
    Sec. IV-D: the victim's own cluster is revoked via the hash chain,
    and its (now keyless) members are decommissioned once the flood has
    propagated — replacement capacity arrives through the join pipeline.
    A join that completes into a cluster while its revocation is in
    flight is decommissioned too, so no alive node keeps a revoked
    cluster's key or stays orphaned by it.
    Departed and revoked nodes are evicted from the gateway state store
    so the query plane never serves their stale readings.
    """

    #: Delay between issuing a revocation and decommissioning the
    #: revoked cluster's members, so the REVOKE flood propagates first.
    REVOKE_SETTLE_S = 2.0

    def __init__(
        self,
        deployed: "DeployedProtocol",
        topology: MobileTopology,
        rng: np.random.Generator,
        joins: int = 0,
        leaves: int = 0,
        revokes: int = 0,
        window: tuple[float, float] = (0.0, 60.0),
        refresh: RefreshCoordinator | None = None,
        refresh_period_s: float = 0.0,
        refresh_until_s: float = 0.0,
        store: GatewayStateStore | None = None,
    ) -> None:
        """``window`` bounds (relative, seconds from start) inside which
        the join/leave/revoke event times are drawn uniformly."""
        if window[1] < window[0] or window[0] < 0:
            raise ValueError("churn window must satisfy 0 <= start <= end")
        self._deployed = deployed
        self._topology = topology
        self._rng = rng
        self._refresh = refresh
        self._refresh_period_s = refresh_period_s
        self._refresh_until_s = refresh_until_s
        self._store = store
        self._events: list[tuple[float, str]] = []
        lo, hi = window
        for kind, count in (("join", joins), ("leave", leaves), ("revoke", revokes)):
            for _ in range(count):
                self._events.append((float(self._rng.uniform(lo, hi)), kind))
        self._events.sort()
        self.joins_completed = 0
        self.joins_failed = 0
        self.leaves = 0
        self.nodes_revoked = 0
        self.clusters_revoked = 0
        self.refresh_rounds = 0

    @property
    def live(self) -> Network:
        """The network the driver churns."""
        return self._deployed.network

    def start(self) -> None:
        """Schedule every churn event and refresh tick on the clock."""
        handlers = {"join": self._join, "leave": self._leave, "revoke": self._revoke}
        for at_s, kind in self._events:
            self._deployed.schedule(at_s, handlers[kind])
        if self._refresh is not None and self._refresh_period_s > 0:
            t = self._refresh_period_s
            while t < self._refresh_until_s:
                self._deployed.schedule(t, self._refresh_tick)
                t += self._refresh_period_s

    # -- event handlers -----------------------------------------------------

    def _pick(self, candidates: list[int]) -> int | None:
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]

    def _join(self) -> None:
        live = self.live
        trace = live.trace
        anchor = self._pick(
            [nid for nid in live.alive_sensor_ids() if nid in self._deployed.agents]
        )
        if anchor is None:
            return
        radius = live.deployment.radius
        side = live.deployment.side
        angle = float(self._rng.uniform(0.0, 2.0 * math.pi))
        reach = float(self._rng.uniform(0.2, 0.6)) * radius
        base = np.asarray(live.nodes[anchor].position, dtype=float)
        position = np.clip(
            base + reach * np.array([math.cos(angle), math.sin(angle)]), 0.0, side
        )
        epoch = 0
        if (
            self._refresh is not None
            and self._deployed.config.refresh_strategy == "rehash"
        ):
            epoch = self._refresh.epoch
        joiner = deploy_new_node(self._deployed, position, hash_epoch=epoch)
        self._topology.add(joiner.node.id, np.asarray(position, dtype=float))
        trace.count("lifecycle.join.started")
        delay = JOIN_WINDOW_S + JOIN_RESPONSE_JITTER_S + 0.5
        self._deployed.schedule(delay, lambda: self._finalize_join(joiner))

    def _finalize_join(self, joiner: "JoiningNodeAgent") -> None:
        trace = self.live.trace
        try:
            agent = finalize_join(self._deployed, joiner)
        except RuntimeError:
            # No verifiable response inside the window (lossy channel or
            # a refresh raced the handshake): the node powers down
            # instead of lingering as a permanent orphan.
            joiner.node.die()
            self.joins_failed += 1
            trace.count("lifecycle.nodes.join_failed")
            self._evict(joiner.node.id)
            return
        self.joins_completed += 1
        trace.count("lifecycle.nodes.joined")
        revoked = self._deployed.bs_agent.revoked_cids
        st = agent.state
        if st.cid is None or st.cid in revoked:
            # Joined a cluster whose revocation was in flight: the flood
            # either cleared the new member's cluster id or passed before
            # it was listening and left it holding the revoked key.
            self._power_down(joiner.node.id)
            self._deployed.assign_gradient()
            return
        # A joiner ignores REVOKE frames during its window, so it may
        # have stored a neighbouring cluster's key after that cluster was
        # revoked; delete it as the missed flood would have.
        for stale in revoked.intersection(st.keyring.cluster_ids()):
            st.keyring.remove(stale)
            trace.count("revoke.key_deleted")

    def _leave(self) -> None:
        live = self.live
        victim = self._pick(
            [nid for nid in live.alive_sensor_ids() if nid in self._deployed.agents]
        )
        if victim is None:
            return
        live.nodes[victim].die()
        self.leaves += 1
        live.trace.count("lifecycle.nodes.left")
        self._evict(victim)
        self._deployed.assign_gradient()

    def _revoke(self) -> None:
        live = self.live
        agents = self._deployed.agents
        victim = self._pick(
            [
                nid
                for nid in live.alive_sensor_ids()
                if nid in agents and agents[nid].state.cid is not None
            ]
        )
        if victim is None:
            return
        cid = agents[victim].state.cid
        assert cid is not None
        # The victim's end-to-end key is no longer trusted by the BS.
        self._deployed.registry.node_keys.pop(victim, None)
        self._deployed.bs_agent.revoke_clusters([cid])
        self.clusters_revoked += 1
        live.trace.count("lifecycle.clusters.revoked")
        self._deployed.schedule(
            self.REVOKE_SETTLE_S, lambda: self._decommission(cid)
        )

    def _decommission(self, cid: int) -> None:
        # The list is built once the flood has settled, not when the
        # revocation was issued, so members whose join completed in
        # between are included. A member the flood reached has already
        # cleared its cluster id; one it missed still holds ``cid``.
        live = self.live
        for nid, agent in self._deployed.agents.items():
            if live.nodes[nid].alive and agent.state.cid in (cid, None):
                self._power_down(nid)
        self._deployed.assign_gradient()

    def _power_down(self, node_id: int) -> None:
        self.live.nodes[node_id].die()
        self.nodes_revoked += 1
        self.live.trace.count("lifecycle.nodes.revoked")
        self._evict(node_id)

    def _refresh_tick(self) -> None:
        if self._refresh is None:
            return
        self._refresh.refresh_once()
        self.refresh_rounds += 1
        self.live.trace.count("lifecycle.refresh.rounds")

    def _evict(self, node_id: int) -> None:
        if self._store is not None:
            self._store.evict(node_id, time=self._deployed.now())


class ConvergenceTracker:
    """Samples cluster-membership health on a fixed cadence.

    A node counts as *orphaned* while it is alive but cannot originate
    readings: its agent is missing (join still in flight), not yet
    operational, or holds no cluster id / cluster key (revoked).
    Routing disconnection (gradient level -1) is tracked separately as
    ``lifecycle.unroutable`` — mobility makes it transient by nature and
    the sliding delivery window already prices it in.

    Emitted telemetry per probe: ``lifecycle.orphans`` and
    ``lifecycle.unroutable`` gauges, ``lifecycle.delivery.window_ratio``
    gauge, plus ``lifecycle.orphan_dwell_ms`` / ``lifecycle.reconverge_ms``
    histogram observations when an orphan recovers or an orphan episode
    closes.
    """

    #: Readings younger than this may still be legitimately in flight,
    #: so the delivery window ends this far in the past.
    WINDOW_LAG_S = 2.0

    def __init__(
        self,
        deployed: "DeployedProtocol",
        workload: ContinuousReporting,
        probe_s: float = 1.0,
        window_s: float = 15.0,
    ) -> None:
        """``window_s`` is the width of the sliding delivery window."""
        if probe_s <= 0 or window_s <= 0:
            raise ValueError("probe_s and window_s must be > 0")
        self._deployed = deployed
        self._workload = workload
        self.probe_s = probe_s
        self.window_s = window_s
        self._running = False
        self._t0 = 0.0
        self._orphan_since: dict[int, float] = {}
        self._episode_start: float | None = None
        self.orphan_dwells_s: list[float] = []
        self.reconverge_s: list[float] = []
        self.min_window_delivery = 1.0

    def start(self) -> None:
        """Begin probing on the deployment's clock."""
        self._running = True
        self._t0 = self._deployed.now()
        self._deployed.schedule(self.probe_s, self._probe)

    def stop(self) -> None:
        """Stop probing (pending probe callbacks become no-ops)."""
        self._running = False

    @staticmethod
    def is_orphan(agent: "ProtocolAgent | None") -> bool:
        """Whether an alive node's agent counts as cluster-orphaned."""
        if agent is None:
            return True
        st = agent.state
        return (
            not agent.operational or st.cid is None or not st.keyring.has(st.cid)
        )

    def _probe(self) -> None:
        if not self._running:
            return
        now = self._deployed.now()
        live = self._deployed.network
        registry = live.trace.registry
        orphans: set[int] = set()
        unroutable = 0
        gradient = self._deployed.gradient
        for nid in live.alive_sensor_ids():
            agent = self._deployed.agents.get(nid)
            if self.is_orphan(agent):
                orphans.add(nid)
            elif gradient.level(nid) < 0:
                unroutable += 1
        registry.gauge("lifecycle.orphans", float(len(orphans)))
        registry.gauge("lifecycle.unroutable", float(unroutable))
        for nid in orphans:
            self._orphan_since.setdefault(nid, now)
        for nid in list(self._orphan_since):
            if nid in orphans:
                continue
            dwell = now - self._orphan_since.pop(nid)
            if live.nodes[nid].alive:
                # Recovered (join completed / re-keyed); a death while
                # orphaned is a departure, not a reconvergence.
                self.orphan_dwells_s.append(dwell)
                registry.observe("lifecycle.orphan_dwell_ms", int(dwell * 1000))
        if orphans and self._episode_start is None:
            self._episode_start = now
        elif not orphans and self._episode_start is not None:
            span = now - self._episode_start
            self._episode_start = None
            self.reconverge_s.append(span)
            registry.observe("lifecycle.reconverge_ms", int(span * 1000))
        end = now - self.WINDOW_LAG_S
        ratio = self._workload.window_delivery_ratio(max(0.0, end - self.window_s), end)
        registry.gauge("lifecycle.delivery.window_ratio", ratio)
        if end - self.window_s >= self._t0:
            self.min_window_delivery = min(self.min_window_delivery, ratio)
        self._deployed.schedule(self.probe_s, self._probe)

    def finalize(self) -> tuple[int, float, float]:
        """Close open episodes; ``(final_orphans, max_dwell, max_reconverge)``.

        Alive nodes still orphaned at the end contribute their open-ended
        dwell (they never reconverged, and the bounds should see that);
        an open orphan episode likewise extends the worst reconvergence
        time to the end of the run.
        """
        self.stop()
        now = self._deployed.now()
        live = self._deployed.network
        final_orphans = 0
        max_dwell = max(self.orphan_dwells_s, default=0.0)
        for nid, since in self._orphan_since.items():
            if live.nodes[nid].alive:
                final_orphans += 1
                max_dwell = max(max_dwell, now - since)
        max_reconverge = max(self.reconverge_s, default=0.0)
        if self._episode_start is not None and final_orphans:
            max_reconverge = max(max_reconverge, now - self._episode_start)
        return final_orphans, max_dwell, max_reconverge


@dataclass(frozen=True)
class ChurnScenario:
    """One seeded lifecycle experiment, fully declarative.

    The defaults are the acceptance scenario the churn-smoke CI job
    runs: continuous waypoint motion over the whole field, 10% link
    loss (plus duplication and reordering), and join/leave/revoke
    churn touching >= 5% of the deployment, with hop-by-hop
    reliability and periodic rehash refresh on.
    """

    seed: int = 0
    n: int = 40
    density: float = 10.0
    transport: str = "loopback"
    #: Mobility model (:data:`repro.sim.mobility.MOBILITY_MODELS`) and shape.
    mobility: str = "waypoint"
    speed_min: float = 0.2
    speed_max: float = 1.0
    mobility_step_s: float = 1.0
    groups: int = 4
    #: Global per-delivery fault rates (see :class:`LinkFaults`).
    drop: float = 0.10
    duplicate: float = 0.03
    reorder: float = 0.03
    #: Horizon and churn volume: events are drawn uniformly inside the
    #: middle of the run so the tail can settle before judgment.
    duration_s: float = 120.0
    joins: int = 2
    leaves: int = 2
    revokes: int = 1
    #: Key-refresh cadence (0 disables even when ``refresh`` is True).
    refresh_period_s: float = 40.0
    refresh: bool = True
    refresh_strategy: str = "rehash"
    #: The reliability layer (per-hop custody ACKs + retransmission and
    #: bounded setup re-announcement). Off reproduces the bare protocol.
    reliability: bool = True
    reannounce: int = 2
    #: Workload cadence: every routable, keyed sensor reports per tick.
    report_period_s: float = 5.0
    #: Convergence probe cadence and sliding delivery window width.
    probe_s: float = 1.0
    window_s: float = 15.0
    settle_s: float = 15.0
    #: Documented convergence bounds (the ``--assert-convergence`` gate).
    #: ``min_delivery`` sits mid-gap between the default scenario over
    #: seeds 0-9 with reliability + refresh on (0.975-0.997) and off
    #: (0.862-0.903), so the gate passes on one side and fails on the other.
    min_delivery: float = 0.94
    max_reconverge_s: float = 30.0
    max_orphan_dwell_s: float = 20.0

    def __post_init__(self) -> None:
        """Validate the declarative fields that drivers do not re-check."""
        if self.mobility not in MOBILITY_MODELS:
            raise ValueError(
                f"mobility must be one of {MOBILITY_MODELS}, got {self.mobility!r}"
            )
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if min(self.joins, self.leaves, self.revokes) < 0:
            raise ValueError("churn event counts must be >= 0")

    @property
    def churn_events(self) -> int:
        """Total scheduled churn events (joins + leaves + revokes)."""
        return self.joins + self.leaves + self.revokes

    @property
    def churn_fraction(self) -> float:
        """Scheduled churn events as a fraction of the deployment size."""
        return self.churn_events / self.n

    def fault_plan(self) -> FaultPlan:
        """The :class:`FaultPlan` this scenario injects."""
        return FaultPlan(
            seed=self.seed,
            defaults=LinkFaults(
                drop=self.drop, duplicate=self.duplicate, reorder=self.reorder
            ),
        )

    def protocol_config(self) -> ProtocolConfig:
        """The protocol tunables (reliability on or off, refresh strategy)."""
        if not self.reliability:
            return ProtocolConfig(refresh_strategy=self.refresh_strategy)
        return ProtocolConfig(
            hop_ack_enabled=True,
            setup_reannounce_count=self.reannounce,
            settle_margin_s=1.0 + self.reannounce * 1.0,
            refresh_strategy=self.refresh_strategy,
        )


@dataclass(frozen=True)
class ChurnResult:
    """What one lifecycle run measured, plus the convergence verdict."""

    converged: bool
    #: Human-readable bound violations (empty when ``converged``).
    reasons: tuple[str, ...]
    delivery_ratio: float
    min_window_delivery: float
    sent: int
    delivered: int
    #: Source-ticks the workload skipped because the source had no
    #: route to the base station (not counted in ``sent``).
    unroutable: int
    send_failures: int
    joins_completed: int
    joins_failed: int
    leaves: int
    nodes_revoked: int
    clusters_revoked: int
    refresh_rounds: int
    mobility_steps: int
    links_added: int
    links_removed: int
    max_reconverge_s: float
    max_orphan_dwell_s: float
    final_orphans: int
    #: Gateway query-plane state at the end of the run (satellite of the
    #: lifecycle story: eviction keeps it bounded and fresh).
    store_nodes: int
    store_evicted: int
    duration_s: float
    counters: Mapping[str, int] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """A trace counter's final value (0 when never incremented)."""
        return int(self.counters.get(name, 0))


def run_churn(scenario: ChurnScenario) -> ChurnResult:
    """Execute one lifecycle scenario and return its measurements.

    Deterministic on the loopback transport: the
    deployment seed fixes topology and protocol timers, the fault-plan
    seed fixes every injected fault, and dedicated RNG streams
    (``mobility``, ``churn``) fix motion and the churn timeline.
    """
    deployed, _metrics = deploy_live(
        n=scenario.n,
        density=scenario.density,
        seed=scenario.seed,
        transport=scenario.transport,
        config=scenario.protocol_config(),
        fault_plan=scenario.fault_plan(),
    )
    live = deployed.network
    trace = live.trace

    # One full-region gateway store rides along: the BS delivery stream
    # feeds it live, churn evicts departed nodes from it.
    store = GatewayStateStore("gw-churn", registry=trace.registry)
    deployed.bs_agent.add_delivery_listener(store.ingest)

    topology = MobileTopology(
        {nid: np.asarray(live.nodes[nid].position, dtype=float).copy()
         for nid in sorted(live.nodes)},
        radius=live.deployment.radius,
    )
    model = build_mobility_model(
        scenario.mobility,
        {nid: np.asarray(live.nodes[nid].position, dtype=float).copy()
         for nid in live.sensor_ids()},
        live.deployment.side,
        rng=live.rng.stream("mobility"),
        speed_min=scenario.speed_min,
        speed_max=scenario.speed_max,
        groups=scenario.groups,
    )
    mobility = MobilityDriver(
        deployed, topology, model, step_s=scenario.mobility_step_s
    )

    refresh = RefreshCoordinator(deployed) if scenario.refresh else None
    churn = ChurnDriver(
        deployed,
        topology,
        rng=live.rng.stream("churn"),
        joins=scenario.joins,
        leaves=scenario.leaves,
        revokes=scenario.revokes,
        window=(0.15 * scenario.duration_s, 0.60 * scenario.duration_s),
        refresh=refresh,
        refresh_period_s=scenario.refresh_period_s,
        refresh_until_s=0.8 * scenario.duration_s,
        store=store,
    )

    def sources() -> list[int]:
        out = []
        for nid in live.alive_sensor_ids():
            agent = deployed.agents.get(nid)
            if agent is not None and not ConvergenceTracker.is_orphan(agent):
                out.append(nid)
        return out

    workload = ContinuousReporting(
        deployed,
        sources,
        period_s=scenario.report_period_s,
        duration_s=scenario.duration_s,
    )
    tracker = ConvergenceTracker(
        deployed, workload, probe_s=scenario.probe_s, window_s=scenario.window_s
    )

    mobility.start()
    churn.start()
    workload.start()
    tracker.start()
    deployed.run_for(scenario.duration_s + scenario.settle_s)
    mobility.stop()
    final_orphans, max_dwell, max_reconverge = tracker.finalize()

    delivery = workload.delivery_ratio()
    reasons: list[str] = []
    if delivery < scenario.min_delivery:
        reasons.append(
            f"delivery ratio {delivery:.3f} below bound {scenario.min_delivery:.3f}"
        )
    if final_orphans:
        reasons.append(f"{final_orphans} node(s) still orphaned at end of run")
    if max_reconverge > scenario.max_reconverge_s:
        reasons.append(
            f"re-clustering took {max_reconverge:.1f}s "
            f"(bound {scenario.max_reconverge_s:.1f}s)"
        )
    if max_dwell > scenario.max_orphan_dwell_s:
        reasons.append(
            f"worst orphan dwell {max_dwell:.1f}s "
            f"(bound {scenario.max_orphan_dwell_s:.1f}s)"
        )

    digest = store.digest()
    return ChurnResult(
        converged=not reasons,
        reasons=tuple(reasons),
        delivery_ratio=delivery,
        min_window_delivery=tracker.min_window_delivery,
        sent=len(workload.sent),
        delivered=len(deployed.bs_agent.delivered),
        unroutable=workload.unroutable,
        send_failures=workload.send_failures,
        joins_completed=churn.joins_completed,
        joins_failed=churn.joins_failed,
        leaves=churn.leaves,
        nodes_revoked=churn.nodes_revoked,
        clusters_revoked=churn.clusters_revoked,
        refresh_rounds=churn.refresh_rounds,
        mobility_steps=mobility.steps,
        links_added=mobility.links_added,
        links_removed=mobility.links_removed,
        max_reconverge_s=max_reconverge,
        max_orphan_dwell_s=max_dwell,
        final_orphans=final_orphans,
        store_nodes=int(digest["nodes"]),
        store_evicted=int(digest["evicted"]),
        duration_s=deployed.now(),
        counters=dict(trace.counters),
    )
