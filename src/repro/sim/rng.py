"""Named, independently-seeded random streams.

Every stochastic component (deployment, election timers, CSMA backoff,
adversary choices, key generation) draws from its own stream derived from
one master seed, so e.g. enabling the adversary never perturbs the
topology. Streams are numpy ``Generator`` objects derived through
``SeedSequence`` spawning keyed by the stream name.
"""

from __future__ import annotations

import numpy as np


class RngManager:
    """Factory of named, reproducible numpy random generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        if name not in self._streams:
            # Stable, platform-independent derivation: seed material is the
            # master seed plus the UTF-8 bytes of the stream name.
            material = [self.seed] + list(name.encode("utf-8"))
            self._streams[name] = np.random.default_rng(np.random.SeedSequence(material))
        return self._streams[name]
