"""Full pairwise keying: a unique key for every pair of nodes.

The other degenerate baseline of Sec. I: perfect resilience (a captured
node exposes only its own links) but ``n - 1`` keys per node — "not
feasible due to memory constraints" — and a broadcast costs one encrypted
transmission *per neighbor*.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.common import KeyId, KeySchemeModel, node_ids


def _pair(u: int, v: int) -> KeyId:
    return ("pair", min(u, v), max(u, v))


class FullPairwiseScheme(KeySchemeModel):
    """Unique key per node pair (network-wide, not just neighbors)."""

    name = "full-pairwise"

    def keys_stored(self, node: int) -> int:
        """One key for every other node in the network."""
        return self.deployment.n - 1

    def broadcast_transmissions(self, node: int) -> int:
        """Each neighbor needs its own encryption of the message."""
        index = node_ids(self.deployment).index(node)
        return max(1, len(self.deployment.neighbors[index]))

    def link_secured(self, u: int, v: int) -> bool:
        """Every pair shares a dedicated key."""
        return True

    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """All pair keys incident to any captured node."""
        material: set[KeyId] = set()
        for u in nodes:
            for v in node_ids(self.deployment):
                if v != u:
                    material.add(_pair(u, v))
        return material

    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """Only links incident to a captured node fall."""
        return _pair(u, v) in material
