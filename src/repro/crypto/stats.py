"""Process-wide counters for the crypto hot path.

The crypto layer is a set of pure functions with no handle on any
deployment's telemetry, so it counts into one process-global
:class:`CryptoStats` with plain integer attributes (an attribute
increment costs nanoseconds — cheap enough to leave always-on in the
per-frame path). The telemetry layer periodically folds *deltas* of
these totals into a deployment's ``MetricsRegistry`` as the ``crypto.*``
metrics documented in docs/TELEMETRY.md (see
:class:`repro.telemetry.crypto.CryptoMetricsPublisher`).
"""

from __future__ import annotations

__all__ = ["CryptoStats", "STATS"]


class CryptoStats:
    """Monotonic totals of crypto operations since process start."""

    __slots__ = (
        "seals",
        "opens",
        "keystream_blocks",
        "keystream_vector_blocks",
        "keystream_reused_blocks",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (tests only; production totals are monotonic)."""
        self.seals = 0
        self.opens = 0
        self.keystream_blocks = 0
        self.keystream_vector_blocks = 0
        self.keystream_reused_blocks = 0

    def snapshot(self) -> dict[str, int]:
        """Current totals as a plain dict (stable key order)."""
        return {name: getattr(self, name) for name in self.__slots__}


#: The one process-wide instance every crypto call site increments.
STATS = CryptoStats()
