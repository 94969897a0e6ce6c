"""One deployment's telemetry: counters, gauges, histograms and events.

Figure 9 of the paper reports *messages exchanged per node* during key
setup; the protocol increments named counters here so experiments read
totals without instrumenting every handler. A :class:`Trace` is shared
by a deployment's network, transport and nodes. It holds the
deployment's :class:`~repro.telemetry.MetricsRegistry`
(``registry``), its :class:`~repro.telemetry.EventStream`
(``events``) and the crypto-counter publisher (``crypto``), so every
counter and event is visible to JSONL export, periodic sampling and the
gateway snapshot.
"""

from __future__ import annotations

from repro.telemetry import CryptoMetricsPublisher, EventStream, MetricsRegistry, TelemetryEvent

__all__ = ["Trace"]


class Trace:
    """The deployment's metrics registry and event stream."""

    def __init__(self, log_limit: int = 0) -> None:
        """``log_limit`` bounds the event buffer (0 = no buffering; live
        subscribers on :attr:`events` still see every record)."""
        self.registry = MetricsRegistry()
        #: The registry's named-counter map (a :class:`collections.Counter`).
        self.counters = self.registry.counters
        self.events = EventStream(limit=log_limit)
        self.crypto = CryptoMetricsPublisher(self.registry)

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters[name] += amount

    def record(
        self,
        time: float,
        kind: str,
        node: int | None = None,
        phase: str | None = None,
        **details,
    ) -> TelemetryEvent:
        """Build and emit one :class:`TelemetryEvent`; returns it."""
        event = TelemetryEvent(
            time=time, kind=kind, node=node, phase=phase, details=details
        )
        self.events.emit(event)
        return event

    def snapshot(self) -> dict:
        """JSON-serializable state: metrics plus event-buffer accounting.

        Publishes pending ``crypto.*`` counter deltas first, so the
        snapshot reflects all crypto work done up to this call.
        """
        self.crypto.publish()
        snap = self.registry.snapshot()
        snap["events_logged"] = len(self.events)
        snap["events_dropped"] = self.events.dropped
        return snap

    def __getitem__(self, name: str) -> int:
        """Current total of counter ``name``."""
        return self.counters[name]
