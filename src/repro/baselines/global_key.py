"""Pebblenets-style network-wide key (Basagni et al. [4]).

The degenerate baseline the paper's related work opens with: one
symmetric key shared by every node. Optimal storage (1 key) and broadcast
cost (1 transmission), but "compromise of even a single node will reveal
the universal key" — capturing any node compromises every link in the
network.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.common import KeyId, KeySchemeModel

_GLOBAL = ("global",)


class GlobalKeyScheme(KeySchemeModel):
    """Single network-wide key."""

    name = "global-key"

    def keys_stored(self, node: int) -> int:
        """Always exactly one key."""
        return 1

    def broadcast_transmissions(self, node: int) -> int:
        """One transmission reaches (and is readable by) all neighbors."""
        return 1

    def link_secured(self, u: int, v: int) -> bool:
        """Every link is secured by the universal key."""
        return True

    def captured_material(self, nodes: Iterable[int]) -> set[KeyId]:
        """Any non-empty capture yields the universal key."""
        return {_GLOBAL} if any(True for _ in nodes) else set()

    def link_compromised(self, u: int, v: int, material: set[KeyId]) -> bool:
        """All links fall together."""
        return _GLOBAL in material
