"""The one interface every key-distribution scheme answers.

Nodes are addressed by network node id, the convention of
:mod:`repro.sim.network` and of every live agent. :func:`node_ids` is the
only place a deployment index becomes a node id. Key material is any
hashable value: opaque ids such as ``("pair", 3, 9)`` or ``("cluster", 42)``,
or the real key bytes a live agent holds. Capturing nodes yields a set of
them, and each link knows which of them protect it.
That view is what the paper's storage / broadcast-cost / resilience
comparisons need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Iterable

from repro.sim.network import FIRST_NODE_ID
from repro.sim.topology import Deployment

KeyId = Hashable
Link = tuple[int, int]


def node_ids(deployment: Deployment) -> range:
    """Node ids of the deployment's sensors, in deployment-index order.

    ``node_ids(d)[i]`` is the id of deployment index ``i`` and
    ``node_ids(d).index(node)`` the way back.
    """
    return range(FIRST_NODE_ID, FIRST_NODE_ID + deployment.n)


def all_links(deployment: Deployment) -> list[Link]:
    """Undirected unit-disk edges ``(u, v)`` as node ids, ``u < v``."""
    ids = node_ids(deployment)
    return [
        (ids[u], ids[int(v)])
        for u in range(deployment.n)
        for v in deployment.neighbors[u]
        if u < v
    ]


def link_fraction(deployment: Deployment, holds: Callable[[int, int], bool]) -> float:
    """Fraction of physical links ``(u, v)`` for which ``holds(u, v)``."""
    links = all_links(deployment)
    if not links:
        return 1.0
    return sum(1 for u, v in links if holds(u, v)) / len(links)


class KeySchemeModel(ABC):
    """A key-distribution scheme instantiated over one deployment."""

    #: Human-readable scheme name for experiment tables.
    name: str = "abstract"

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    # -- storage and broadcast cost (Secs. II/III claims) ----------------

    @abstractmethod
    def keys_stored(self, node: int) -> int:
        """Symmetric keys node ``node`` holds after setup."""

    @abstractmethod
    def broadcast_transmissions(self, node: int) -> int:
        """Encrypted transmissions needed to broadcast one message to all
        of ``node``'s neighbors (the paper's energy argument: ours is 1,
        pairwise schemes pay one per neighbor)."""

    def bootstrap_transmissions(self, node: int) -> int:
        """Transmissions node ``node`` makes during key establishment.

        The paper's Sec. III point against LEAP: "a more expensive
        bootstrapping phase". Default 0 (pure predistribution needs no
        bootstrap traffic beyond discovery, which every scheme shares).
        """
        return 0

    # -- link security ----------------------------------------------------

    @abstractmethod
    def link_secured(self, u: int, v: int) -> bool:
        """Whether neighbors ``u`` and ``v`` can establish a secure link
        (random predistribution only secures links probabilistically)."""

    @abstractmethod
    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """Key material an adversary extracts by capturing ``nodes``."""

    @abstractmethod
    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """Whether traffic on secured link ``(u, v)`` is readable given
        ``material``."""

    # -- derived metrics ---------------------------------------------------

    def keys_per_node(self) -> list[int]:
        """Storage across all nodes, in deployment order."""
        return [self.keys_stored(node) for node in node_ids(self.deployment)]

    def secured_link_fraction(self) -> float:
        """Fraction of physical links that end up secured (connectivity)."""
        return link_fraction(self.deployment, self.link_secured)

    def resilience(self, captured: list[int]) -> float:
        """The Eschenauer–Gligor resilience metric: the fraction of secured
        links *between non-captured nodes* whose traffic the adversary can
        read after capturing ``captured``.

        Lower is better; 0 means node capture is perfectly localized to
        the captured nodes' own communications.
        """
        material = self.captured_material(captured)
        captured_set = set(captured)
        remote = [
            (u, v)
            for u, v in all_links(self.deployment)
            if u not in captured_set and v not in captured_set and self.link_secured(u, v)
        ]
        if not remote:
            return 0.0
        broken = sum(1 for u, v in remote if self.link_compromised(u, v, material))
        return broken / len(remote)

    def compromise_by_distance(self, captured_node: int) -> dict[int, float]:
        """Fraction of secured links compromised, bucketed by the hop
        distance of the link's nearer endpoint from the captured node.

        This is the *localization* picture: for this paper's protocol the
        compromised fraction collapses to ~0 beyond a couple of hops,
        while for random predistribution it is flat across the network.
        """
        material = self.captured_material([captured_node])
        ids = node_ids(self.deployment)
        hops = dict(zip(ids, self.deployment.hop_counts_from([ids.index(captured_node)])))
        buckets: dict[int, list[int]] = {}
        for u, v in all_links(self.deployment):
            if captured_node in (u, v) or not self.link_secured(u, v):
                continue
            d = int(min(hops[u], hops[v]))
            if d < 0:
                continue
            buckets.setdefault(d, []).append(
                1 if self.link_compromised(u, v, material) else 0
            )
        return {d: sum(xs) / len(xs) for d, xs in sorted(buckets.items())}
