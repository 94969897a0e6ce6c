"""repro.telemetry — one observability layer for sim and live runs.

Before this package existed the repo had two disjoint ways to observe a
run: the sim-only ``Trace`` counter buffer (post-hoc) and the runtime's
JSON status snapshot (point-in-time, now
:func:`repro.gateway.deployment_status`). Both now publish into a
single :class:`Telemetry` object per deployment:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges
  and histograms, shared by every protocol agent, the base station, the
  simulated radio and all live transports;
* :class:`~repro.telemetry.events.EventStream` — typed
  :class:`~repro.telemetry.events.TelemetryEvent` records (node id,
  virtual time, phase) with live subscribers and a bounded buffer;
* :class:`~repro.telemetry.export.JsonlWriter` /
  :class:`~repro.telemetry.export.PeriodicSampler` /
  :func:`~repro.telemetry.export.read_records` — JSONL streaming
  (``run-live --metrics-out m.jsonl``) and round-tripping;
* :func:`~repro.telemetry.summary.summarize_records` — folds a JSONL
  stream back into the shape ``SetupMetrics`` reports
  (``python -m repro metrics summarize m.jsonl``).

``repro.sim.trace.Trace`` is now a thin compatibility facade over this
package, so all existing ``trace.count(...)`` call sites feed the
registry unchanged. The metric-name/JSONL contract is documented in
``docs/TELEMETRY.md``.
"""

from __future__ import annotations

from repro.telemetry.crypto import CryptoMetricsPublisher
from repro.telemetry.events import EventStream, TelemetryEvent
from repro.telemetry.export import JsonlWriter, PeriodicSampler, read_records
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.summary import RunSummary, render_summary, summarize_records

__all__ = [
    "Telemetry",
    "CryptoMetricsPublisher",
    "MetricsRegistry",
    "EventStream",
    "TelemetryEvent",
    "JsonlWriter",
    "PeriodicSampler",
    "read_records",
    "RunSummary",
    "summarize_records",
    "render_summary",
]


class Telemetry:
    """One deployment's registry + event stream, bundled.

    Created by ``Trace`` (one per deployment, shared by the network and
    its transport) and reachable from any node as
    ``node.trace.telemetry``.
    """

    def __init__(self, event_limit: int = 0) -> None:
        """``event_limit`` bounds the event buffer (0 = no buffering)."""
        self.registry = MetricsRegistry()
        self.events = EventStream(limit=event_limit)
        self.crypto = CryptoMetricsPublisher(self.registry)

    def emit(
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
