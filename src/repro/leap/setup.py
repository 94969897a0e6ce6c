"""LEAP deployment orchestration and the live Sec. III attack."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AeadConfig
from repro.crypto.keys import SymmetricKey
from repro.leap.agent import LeapAgent, pairwise_key
from repro.leap import messages
from repro.sim.network import Network


@dataclass
class LeapDeployment:
    """A bootstrapped LEAP network."""

    network: Network
    agents: dict[int, LeapAgent]
    aead: AeadConfig

    def agent(self, node_id: int) -> LeapAgent:
        """Agent by node id."""
        return self.agents[node_id]

    def mean_keys_stored(self) -> float:
        """Average keys in memory across nodes (live Sec. III metric)."""
        if not self.agents:
            return 0.0
        return sum(a.keys_stored() for a in self.agents.values()) / len(self.agents)

    def bootstrap_transmissions_per_node(self) -> float:
        """HELLOs + cluster-key unicasts, per node (live bootstrap bill)."""
        trace = self.network.trace
        total = trace["leap.tx.hello"] + trace["leap.tx.cluster_key"]
        return total / len(self.agents) if self.agents else 0.0


def run_leap_bootstrap(
    n: int,
    density: float,
    seed: int = 0,
    discovery_window_s: float = 2.0,
    flood_victim: int | None = None,
    flood_ids: range | None = None,
) -> LeapDeployment:
    """Deploy and bootstrap a LEAP network.

    With ``flood_victim``/``flood_ids`` set, an attacker node adjacent to
    the victim broadcasts one forged discovery HELLO per id during the
    discovery window — the live Sec. III attack.
    """
    network = Network.build(n, density, seed=seed)
    aead = AeadConfig()
    key_rng = network.rng.stream("leap-keys")
    timer_rng = network.rng.stream("leap-timers")
    k_init_material = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()

    agents: dict[int, LeapAgent] = {}
    for nid in network.sensor_ids():
        agent = LeapAgent(
            network.node(nid),
            SymmetricKey(k_init_material, label="K_init"),
            aead,
            timer_rng,
            discovery_window_s,
        )
        network.node(nid).app = agent
        agents[nid] = agent
        agent.start_bootstrap()

    if flood_victim is not None and flood_ids is not None:
        attacker = network.add_node(network.node(flood_victim).position + 0.1)

        def flood() -> None:
            for forged in flood_ids:
                attacker.broadcast(messages.encode_discovery_hello(forged))

        network.transport.schedule(discovery_window_s * 0.1, flood)

    network.transport.run(until=discovery_window_s + 1.5)
    return LeapDeployment(network, agents, aead)


def capture_leap_node(deployment: LeapDeployment, victim: int) -> dict[str, object]:
    """Dump a LEAP node's key memory (the Sec. III capture).

    Returns the victim's retained ``K_v`` and demonstrates the payoff: the
    pairwise key to *any* identity is derivable from it.
    """
    agent = deployment.agents[victim]
    k_v = agent.k_v.material
    return {
        "k_v": k_v,
        "pairwise": dict(agent.pairwise),
        "cluster_key": agent.cluster_key.material,
        "neighbor_cluster_keys": dict(agent.neighbor_cluster_keys),
    }


def derive_pairwise_from_capture(k_v: bytes, victim: int, other: int) -> bytes:
    """What the adversary computes post-capture: ``K_{victim,other}``.

    Only valid when ``victim > other`` (the key owner is the larger id);
    for the other direction she already holds the stored pairwise key.
    """
    return pairwise_key(k_v, victim, other, from_kv=True)
