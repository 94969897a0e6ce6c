"""This paper's protocol seen through the baseline interface.

Wraps a *live* :class:`~repro.protocol.setup.DeployedProtocol` (after key
setup) so the comparative experiments measure the real thing: keys stored
are actual key-ring sizes, capture exposure is the actual key material an
agent holds. Protocol agents and the scheme interface both address nodes
by network node id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.baselines.common import KeyId, KeySchemeModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol


class LdpSchemeModel(KeySchemeModel):
    """Adapter: the localized distributed protocol as a KeySchemeModel."""

    name = "this-paper"

    def __init__(self, deployed: "DeployedProtocol") -> None:
        super().__init__(deployed.network.deployment)
        self.deployed = deployed

    def keys_stored(self, node: int) -> int:
        """Actual key-ring size (own cluster + neighboring clusters)."""
        return self.deployed.agents[node].state.stored_key_count()

    def broadcast_transmissions(self, node: int) -> int:
        """One: the cluster key is shared with every neighbor (Sec. IV-C)."""
        return 1

    def bootstrap_transmissions(self, node: int) -> int:
        """Actual setup transmissions of the live run: one LINKINFO for
        everyone plus a HELLO for the nodes that became heads (Fig. 9's
        ~1.1–1.2 messages/node)."""
        return self.deployed.network.node(node).frames_sent

    def link_secured(self, u: int, v: int) -> bool:
        """Hop traffic from u is decryptable by v iff v holds u's cluster
        key — true for all neighbors after link establishment."""
        cu = self.deployed.agents[u].state.cid
        return cu is not None and self.deployed.agents[v].state.keyring.has(cu)

    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """The cluster keys in the captured agents' key rings — keys are
        localized, so this is the captured nodes' own clusters plus their
        immediate neighboring clusters, nothing else."""
        material: set[KeyId] = set()
        for u in nodes:
            for cid in self.deployed.agents[u].state.keyring.cluster_ids():
                material.add(("cluster", cid))
        return material

    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """Traffic between u and v travels under their cluster keys."""
        cu = self.deployed.agents[u].state.cid
        cv = self.deployed.agents[v].state.cid
        return ("cluster", cu) in material or ("cluster", cv) in material
