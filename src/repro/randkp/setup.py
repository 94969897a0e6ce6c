"""E-G deployment orchestration and capture analysis."""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AeadConfig
from repro.crypto.kdf import prf
from repro.randkp.agent import RandKpAgent
from repro.sim.network import Network


def pool_key(pool_master: bytes, key_id: int) -> bytes:
    """Pool key ``key_id`` (derived, so tests can cross-check exposure)."""
    return prf(pool_master, b"eg-pool" + key_id.to_bytes(4, "big"))


@dataclass
class RandKpDeployment:
    """A bootstrapped E-G network."""

    network: Network
    agents: dict[int, RandKpAgent]
    pool_size: int
    ring_size: int
    aead: AeadConfig

    def agent(self, node_id: int) -> RandKpAgent:
        """Agent by node id."""
        return self.agents[node_id]

    # -- live metrics ------------------------------------------------------

    def _physical_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for nid in self.agents:
            for other in self.network.adjacency(nid):
                if other in self.agents and nid < other:
                    pairs.append((nid, other))
        return pairs

    def secured_fraction(self, how: str | None = None) -> float:
        """Fraction of physical links secured (optionally by mechanism:
        "shared" for direct ring intersections, "path" for relayed keys)."""
        pairs = self._physical_pairs()
        if not pairs:
            return 1.0
        count = 0
        for u, v in pairs:
            entry = self.agents[u].link_keys.get(v)
            if entry is not None and (how is None or entry[1] == how):
                count += 1
        return count / len(pairs)

    def link_keys_consistent(self) -> bool:
        """Both ends of every secured link agree on the key bytes."""
        for u, v in self._physical_pairs():
            a = self.agents[u].link_keys.get(v)
            b = self.agents[v].link_keys.get(u)
            if (a is None) != (b is None):
                return False
            if a is not None and b is not None and a[0] != b[0]:
                return False
        return True

    def mean_keys_stored(self) -> float:
        """Average keys in memory per node."""
        if not self.agents:
            return 0.0
        return sum(a.keys_stored() for a in self.agents.values()) / len(self.agents)

    def capture(self, node_id: int) -> dict[str, object]:
        """Extract a node's key memory (ring, link keys, relay knowledge)."""
        agent = self.agents[node_id]
        return {
            "ring": dict(agent.ring),
            "link_keys": {n: k for n, (k, _) in agent.link_keys.items()},
            "relay_knowledge": dict(agent.relay_knowledge),
        }

    def remote_links_compromised_by(self, captured: list[int]) -> float:
        """Live E-G resilience metric: fraction of secured links between
        non-captured nodes readable with the captured material."""
        exposed_pool: set[bytes] = set()
        exposed_path: dict[tuple[int, int], bytes] = {}
        for nid in captured:
            loot = self.capture(nid)
            exposed_pool.update(loot["ring"].values())
            exposed_path.update(loot["relay_knowledge"])
        captured_set = set(captured)
        remote = [
            (u, v)
            for u, v in self._physical_pairs()
            if u not in captured_set
            and v not in captured_set
            and v in self.agents[u].link_keys
        ]
        if not remote:
            return 0.0
        broken = 0
        for u, v in remote:
            key, how = self.agents[u].link_keys[v]
            if how == "path":
                if exposed_path.get((min(u, v), max(u, v))) == key:
                    broken += 1
            else:
                shared = set(self.agents[u].ring_ids) & set(self.agents[v].ring_ids)
                ring = self.agents[u].ring
                if self.agents[u].q == 1:
                    if ring[min(shared)] in exposed_pool:
                        broken += 1
                # q-composite: the hashed link key falls only when every
                # shared pool key is exposed.
                elif all(ring[k] in exposed_pool for k in shared):
                    broken += 1
        return broken / len(remote)


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
    network = Network.build(n, density, seed=seed)
    aead = AeadConfig()
    key_rng = network.rng.stream("eg-keys")
    timer_rng = network.rng.stream("eg-timers")
    pool_master = key_rng.integers(0, 256, size=16, dtype="uint8").tobytes()

    agents: dict[int, RandKpAgent] = {}
    for nid in network.sensor_ids():
        ids = key_rng.choice(pool_size, size=ring_size, replace=False)
        ring = {int(k): pool_key(pool_master, int(k)) for k in ids}
        agent = RandKpAgent(
            network.node(nid), ring, aead, timer_rng, discovery_window_s, q=q
        )
        network.node(nid).app = agent
        agents[nid] = agent
        agent.start_bootstrap()

    network.transport.run(until=discovery_window_s + 2.0)
    return RandKpDeployment(network, agents, pool_size, ring_size, aead)
