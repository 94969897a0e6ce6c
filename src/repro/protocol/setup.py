"""Provisioning and key-setup orchestration.

:func:`provision` performs the paper's initialization phase (Sec. IV-A):
it manufactures per-node key material — ``K_i``, ``K_ci = F(K_MC, i)``,
a private copy of ``K_m`` and the revocation-chain commitment — attaches a
:class:`ProtocolAgent` to every sensor and a :class:`BaseStationAgent` to
the base station, and hands the full key database to the base station.

:func:`run_key_setup` then executes the cluster key setup (Sec. IV-B) in
simulated time and returns the deployed, operational protocol together
with the :class:`~repro.protocol.metrics.SetupMetrics` that Section V's
figures are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.kdf import derive_cluster_key
from repro.crypto.keychain import KeyChain
from repro.crypto.keys import SymmetricKey
from repro.protocol import messages
from repro.protocol.agent import DataReception, LinkinfoReception, ProtocolAgent
from repro.protocol.base_station import BaseStationAgent, KeyRegistry
from repro.protocol.config import REVOCATION_CHAIN_LENGTH, ProtocolConfig
from repro.protocol.metrics import SetupMetrics, compute_setup_metrics
from repro.protocol.state import Gradient, Preload
from repro.sim.network import BS_ID, Network
from repro.sim.radio import RadioConfig
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.faults import FaultPlan


@dataclass
class DeployedProtocol:
    """A provisioned (and, after :func:`run_key_setup`, operational) network."""

    network: Network
    config: ProtocolConfig
    agents: dict[int, ProtocolAgent]
    bs_agent: BaseStationAgent
    registry: KeyRegistry
    #: The routing gradient every agent reads (see :meth:`assign_gradient`).
    gradient: Gradient

    def agent(self, node_id: int) -> ProtocolAgent:
        """Agent of sensor ``node_id``."""
        return self.agents[node_id]

    # -- timer interface ---------------------------------------------------
    #
    # All orchestration (refresh rounds, workloads, experiments) goes
    # through these three methods, which drive the network's transport.

    def now(self) -> float:
        """Current protocol time."""
        return self.network.transport.now

    def schedule(self, delay: float, callback: Callable[[], Any]):
        """Arm ``callback`` to fire ``delay`` protocol-seconds from now."""
        return self.network.transport.schedule(delay, callback)

    def run_until(self, time_s: float) -> float:
        """Drive the clock to absolute protocol time ``time_s``."""
        return self.network.transport.run(until=time_s)

    def run_for(self, duration_s: float) -> float:
        """Drive the clock forward by ``duration_s`` protocol-seconds."""
        return self.run_until(self.now() + duration_s)

    def assign_gradient(self) -> None:
        """Refill :attr:`gradient`: every node's hop distance to the base
        station and its parent.

        The paper is routing-agnostic ("no matter what routing protocol is
        followed"); we use a shortest-hop gradient as the routing
        substrate, over the links that can carry a frame. A frame sealed
        by ``u`` under its cluster key is useful to a downhill ``v`` only
        if ``v`` can open it, so the link ``u -> v`` counts iff ``v`` is
        alive and holds ``K_{cid(u)}``, or ``v`` is the base station and
        ``cid(u)`` is not revoked. Cluster keys are learnt once, before
        ``K_m`` is erased, so under motion the radio graph and the key
        graph part ways; :meth:`Network.hop_gradient` stays radio-only.
        A node without its own cluster key is unroutable (-1). Re-run
        after topology changes (deaths, additions, motion, revocation).

        The node through which the search first reaches ``u`` is ``u``'s
        parent, its designated next hop: the base station, or a downhill
        node holding ``K_{cid(u)}``.
        """
        network = self.network
        cid_of: dict[int, int] = {}
        for nid, agent in self.agents.items():
            st = agent.state
            if st.cid is not None and st.keyring.has(st.cid) and network.nodes[nid].alive:
                cid_of[nid] = st.cid
        revoked = self.bs_agent.revoked_cids
        size = max(network.nodes) + 1
        levels = [-1] * size
        parents = [-1] * size
        levels[BS_ID] = 0
        frontier = []
        for u in network.adjacency(BS_ID):
            if u in cid_of and cid_of[u] not in revoked:
                levels[u] = 1
                parents[u] = BS_ID
                frontier.append(u)
        level = 1
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                keyring = self.agents[v].state.keyring
                for u in network.adjacency(v):
                    if levels[u] < 0 and u in cid_of and keyring.has(cid_of[u]):
                        levels[u] = level
                        parents[u] = v
                        nxt.append(u)
            frontier = nxt
        self.gradient.levels = levels
        self.gradient.parents = parents


def provision(network: Network, config: ProtocolConfig | None = None) -> DeployedProtocol:
    """Initialization phase: manufacture keys and attach agents.

    Agents only ever see the node-level surface (broadcast / schedule /
    now / trace), never the network or its transport.
    """
    config = config or ProtocolConfig()
    key_rng = network.rng.stream("keys")
    timer_rng = network.rng.stream("timers")

    km_material = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()
    kmc = SymmetricKey.generate(key_rng, label="K_MC")
    chain_seed = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()
    chain = KeyChain(REVOCATION_CHAIN_LENGTH, seed=chain_seed)

    node_keys: dict[int, SymmetricKey] = {}
    agents: dict[int, ProtocolAgent] = {}
    gradient = Gradient()

    for nid in network.sensor_ids():
        ki = SymmetricKey.generate(key_rng, label=f"K[{nid}]")
        node_keys[nid] = SymmetricKey(ki.material, label=f"K[{nid}]")  # BS copy
        preload = Preload(
            node_key=ki,
            cluster_key=SymmetricKey(
                derive_cluster_key(kmc.material, nid), label=f"Kc[{nid}]"
            ),
            master_key=SymmetricKey(km_material, label="K_m"),  # private copy
            chain_commitment=chain.commitment,
        )
        node = network.node(nid)
        agent = ProtocolAgent(node, config, preload, timer_rng, gradient)
        node.app = agent
        agents[nid] = agent

    # The loopback fan-out receives each DATA and LINKINFO frame in one
    # shared pass: one open per broadcast, each receiver's own decisions.
    network.radio.receptions[messages.DATA] = DataReception
    network.radio.receptions[messages.LINKINFO] = LinkinfoReception
    registry = KeyRegistry(node_keys=node_keys, kmc=kmc, chain=chain)
    bs_agent = BaseStationAgent(network.bs, config, registry)
    network.bs.app = bs_agent
    return DeployedProtocol(network, config, agents, bs_agent, registry, gradient)


def run_key_setup(
    network: Network, config: ProtocolConfig | None = None
) -> tuple[DeployedProtocol, SetupMetrics]:
    """Provision, run the cluster key setup to completion, compute metrics.

    After this returns, every node has a role and a cluster key, ``K_m``
    is erased network-wide, the routing gradient is assigned and the data
    plane is live.
    """
    deployed = provision(network, config)
    trace = network.trace
    trace.record(
        deployed.now(), "setup.begin", phase="setup", nodes=len(deployed.agents)
    )
    for agent in deployed.agents.values():
        agent.start_setup()
    deployed.run_until(deployed.config.setup_end_s)
    deployed.assign_gradient()
    metrics = compute_setup_metrics(deployed)
    trace.record(
        deployed.now(),
        "setup.end",
        phase="setup",
        clusters=metrics.cluster_count,
        hello_messages=metrics.hello_messages,
        linkinfo_messages=metrics.linkinfo_messages,
    )
    return deployed, metrics


def deploy(
    n: int,
    density: float,
    seed: int = 0,
    config: ProtocolConfig | None = None,
    *,
    transport: str = "loopback",
    radio_config: RadioConfig | None = None,
    fault_plan: "FaultPlan | None" = None,
    event_log_limit: int = 0,
    **transport_kwargs,
) -> tuple[DeployedProtocol, SetupMetrics]:
    """Deploy ``n`` nodes on ``transport`` and run key setup on them.

    Builds the topology at the requested mean density, brings up one
    node runtime per node on the named fabric (``loopback``, the
    deterministic in-process fabric with the radio link model, or
    ``udp``), runs the paper's cluster key setup and returns the
    operational :class:`DeployedProtocol` plus the setup metrics. Extra
    keyword arguments go to the transport constructor (``pace`` for
    loopback; ``base_port`` / ``host`` / ``time_scale`` for UDP).

    ``fault_plan`` wraps the fabric in a
    :class:`~repro.runtime.faults.FaultInjectingTransport`, so the whole
    deployment — key setup included — runs under the plan's faults.

    ``event_log_limit`` > 0 enables the telemetry event buffer *before*
    key setup runs, so a JSONL exporter attached afterwards (``run-live
    --metrics-out``) still replays the setup-phase events.
    """
    # Local imports: the runtime package builds on this module.
    from repro.runtime.cluster import build_transport
    from repro.runtime.faults import FaultInjectingTransport

    fabric = build_transport(transport, trace=Trace(log_limit=event_log_limit), **transport_kwargs)
    if fault_plan is not None:
        fabric = FaultInjectingTransport(fabric, fault_plan)
    network = Network.build(n, density, seed=seed, radio_config=radio_config, transport=fabric)
    return run_key_setup(network, config)
