"""Bridges the process-global crypto counters into a deployment's registry.

The crypto layer (:mod:`repro.crypto.stats`) counts seals, opens and
keystream blocks in a single process-global :class:`CryptoStats` — the hot
path cannot afford a registry lookup per frame, and the AEAD functions
have no deployment handle anyway. This module folds that global into a
per-deployment :class:`~repro.telemetry.registry.MetricsRegistry` by
publishing *deltas*: each :meth:`CryptoMetricsPublisher.publish` adds
whatever the global counters gained since the previous publish, so
multiple sequential deployments in one process don't double-count each
other's work.

Metric names are documented in ``docs/TELEMETRY.md`` (the ``crypto.*``
section).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.kernels import active_backend
from repro.crypto.stats import STATS

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.registry import MetricsRegistry

__all__ = ["CryptoMetricsPublisher"]


class CryptoMetricsPublisher:
    """Publishes crypto-counter deltas into one deployment's registry.

    Construction snapshots the global counters as the baseline, so work
    done by *earlier* deployments in the same process is excluded. Call
    :meth:`publish` before reading or exporting the registry (the
    ``Telemetry`` snapshot and the periodic sampler both do).
    """

    def __init__(self, registry: "MetricsRegistry") -> None:
        """Bind to ``registry`` and baseline the global counters."""
        self._registry = registry
        self._last = STATS.snapshot()

    def publish(self) -> None:
        """Fold counter growth since the last publish into the registry.

        Also refreshes the ``crypto.backend_vector`` gauge (1.0 when the
        process-wide default backend is ``vector``, 0.0 for ``pure``).
        """
        current = STATS.snapshot()
        last, self._last = self._last, current
        reg = self._registry
        if delta := current["seals"] - last["seals"]:
            reg.inc("crypto.seals", delta)
        if delta := current["opens"] - last["opens"]:
            reg.inc("crypto.opens", delta)
        if delta := current["keystream_blocks"] - last["keystream_blocks"]:
            reg.inc("crypto.keystream_blocks", delta)
        if delta := current["keystream_vector_blocks"] - last["keystream_vector_blocks"]:
            reg.inc("crypto.keystream_vector_blocks", delta)
        if delta := current["keystream_reused_blocks"] - last["keystream_reused_blocks"]:
            reg.inc("crypto.keystream_reused_blocks", delta)
        reg.gauge("crypto.backend_vector", 1.0 if active_backend() == "vector" else 0.0)
