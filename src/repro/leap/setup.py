"""LEAP deployment orchestration and the live Sec. III attack."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.baselines.common import KeyId, KeySchemeModel
from repro.crypto.aead import AeadConfig
from repro.crypto.keys import SymmetricKey
from repro.leap.agent import LeapAgent, pairwise_key
from repro.leap import messages
from repro.sim.network import Network


@dataclass
class LeapDeployment(KeySchemeModel):
    """A bootstrapped LEAP network, answering the scheme interface from
    its agents' key state."""

    network: Network
    agents: dict[int, LeapAgent]
    aead: AeadConfig

    name = "leap"

    def __post_init__(self) -> None:
        super().__init__(self.network.deployment)

    def agent(self, node_id: int) -> LeapAgent:
        """Agent by node id."""
        return self.agents[node_id]

    def keys_stored(self, node: int) -> int:
        """K_v + own cluster key + pairwise keys + received cluster keys:
        proportional to the neighborhood, and to every forged HELLO."""
        return self.agents[node].keys_stored()

    def broadcast_transmissions(self, node: int) -> int:
        """One transmission under the node's own cluster key."""
        return 1

    def bootstrap_transmissions(self, node: int) -> int:
        """Frames the node sent: its discovery HELLO plus one cluster-key
        unicast per discovered neighbor (Sec. III's "more expensive
        bootstrapping phase")."""
        return self.network.node(node).frames_sent

    def link_secured(self, u: int, v: int) -> bool:
        """``u`` derived a pairwise key for ``v`` during discovery."""
        return v in self.agents[u].pairwise

    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """Every key in the captured nodes' memory (:func:`capture_leap_node`)."""
        material: set[KeyId] = set()
        for u in nodes:
            loot = capture_leap_node(self, u)
            material.update((loot["k_v"], loot["cluster_key"]))
            material.update(loot["pairwise"].values())
            material.update(loot["neighbor_cluster_keys"].values())
        return material

    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """Broadcast traffic on (u, v) is readable with either endpoint's
        cluster key; unicast falls with the pairwise key."""
        return (
            self.agents[u].cluster_key.material in material
            or self.agents[v].cluster_key.material in material
            or self.agents[u].pairwise.get(v) in material
        )


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


def capture_leap_node(deployment: LeapDeployment, victim: int) -> dict[str, Any]:
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
