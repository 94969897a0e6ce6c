"""E-G deployment orchestration and capture analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from repro.baselines.common import KeyId, KeySchemeModel, all_links
from repro.crypto.aead import AeadConfig
from repro.crypto.kdf import prf
from repro.randkp.agent import RandKpAgent
from repro.sim.network import Network
from repro.util.validate import check_positive


def pool_key(pool_master: bytes, key_id: int) -> bytes:
    """Pool key ``key_id`` (derived, so tests can cross-check exposure)."""
    return prf(pool_master, b"eg-pool" + key_id.to_bytes(4, "big"))


def expected_share_probability(pool_size: int, ring_size: int) -> float:
    """Probability two random rings intersect (E-G eq. 1):
    ``1 - ((P - m)!)^2 / (P! (P - 2m)!)``."""
    if 2 * ring_size > pool_size:
        return 1.0
    # Compute in log space to survive large pools.
    log_p_no_share = (
        2 * math.lgamma(pool_size - ring_size + 1)
        - math.lgamma(pool_size + 1)
        - math.lgamma(pool_size - 2 * ring_size + 1)
    )
    return 1.0 - math.exp(log_p_no_share)


@dataclass
class RandKpDeployment(KeySchemeModel):
    """A bootstrapped E-G (``q == 1``) or q-composite network, answering
    the scheme interface from its agents' key state."""

    network: Network
    agents: dict[int, RandKpAgent]
    pool_size: int
    ring_size: int
    aead: AeadConfig
    q: int = 1

    def __post_init__(self) -> None:
        super().__init__(self.network.deployment)
        self.name = "eschenauer-gligor" if self.q == 1 else f"q-composite(q={self.q})"

    def agent(self, node_id: int) -> RandKpAgent:
        """Agent by node id."""
        return self.agents[node_id]

    def shared_key_link(self, u: int, v: int) -> bool:
        """``u`` secured its link to ``v`` from shared ring keys, not
        through a relay's path key."""
        entry = self.agents[u].link_keys.get(v)
        return entry is not None and entry[1] == "shared"

    def link_keys_consistent(self) -> bool:
        """Both ends of every secured link agree on the key bytes."""
        for u, v in all_links(self.deployment):
            a = self.agents[u].link_keys.get(v)
            b = self.agents[v].link_keys.get(u)
            if (a is None) != (b is None):
                return False
            if a is not None and b is not None and a[0] != b[0]:
                return False
        return True

    def capture(self, node_id: int) -> dict[str, Any]:
        """Extract a node's key memory (ring, link keys, relay knowledge)."""
        agent = self.agents[node_id]
        return {
            "ring": dict(agent.ring),
            "link_keys": {n: k for n, (k, _) in agent.link_keys.items()},
            "relay_knowledge": dict(agent.relay_knowledge),
        }

    # -- the scheme interface -----------------------------------------------

    def keys_stored(self, node: int) -> int:
        """Ring keys + established link keys."""
        return self.agents[node].keys_stored()

    def broadcast_transmissions(self, node: int) -> int:
        """One encryption per secured neighbor: each link has its own key."""
        return max(1, len(self.agents[node].link_keys))

    def bootstrap_transmissions(self, node: int) -> int:
        """Frames the node sent: its ring announcement plus the path-key
        requests and grants it made."""
        return self.network.node(node).frames_sent

    def link_secured(self, u: int, v: int) -> bool:
        """``u`` holds a link key for ``v``, shared or path."""
        return v in self.agents[u].link_keys

    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """Every key in the captured nodes' memory (:meth:`capture`):
        ring keys, link keys and the path keys they generated as relays."""
        material: set[KeyId] = set()
        for u in nodes:
            for keys in self.capture(u).values():
                material.update(keys.values())
        return material

    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """A path key falls when some captured relay generated it. A direct
        link key falls with the smallest shared pool key for basic E-G;
        the q-composite hash of all shared keys needs every one of them."""
        agent = self.agents[u]
        key, how = agent.link_keys[v]
        if how == "path":
            return key in material
        shared = agent.ring.keys() & self.agents[v].ring.keys()
        if self.q == 1:
            shared = {min(shared)}
        return all(agent.ring[k] in material for k in shared)


def run_randkp_bootstrap(
    n: int,
    density: float,
    seed: int = 0,
    pool_size: int = 1000,
    ring_size: int = 25,
    discovery_window_s: float = 2.0,
    q: int = 1,
) -> RandKpDeployment:
    """Deploy and bootstrap an E-G network (discovery + path-key round).

    ``q > 1`` selects Chan–Perrig–Song q-composite direct links.
    """
    check_positive("pool_size", pool_size)
    check_positive("ring_size", ring_size)
    if ring_size > pool_size:
        raise ValueError("ring_size cannot exceed pool_size")
    network = Network.build(n, density, seed=seed)
    aead = AeadConfig()
    key_rng = network.rng.stream("eg-keys")
    timer_rng = network.rng.stream("eg-timers")
    pool_master = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()

    pool: dict[int, bytes] = {}  # each drawn pool key derived once
    agents: dict[int, RandKpAgent] = {}
    for nid in network.sensor_ids():
        ring = {}
        for k in key_rng.choice(pool_size, size=ring_size, replace=False).tolist():
            if k not in pool:
                pool[k] = pool_key(pool_master, k)
            ring[k] = pool[k]
        agent = RandKpAgent(
            network.node(nid), ring, aead, timer_rng, discovery_window_s, q=q
        )
        network.node(nid).app = agent
        agents[nid] = agent
        agent.start_bootstrap()

    network.transport.run(until=discovery_window_s + 2.0)
    return RandKpDeployment(network, agents, pool_size, ring_size, aead, q)
