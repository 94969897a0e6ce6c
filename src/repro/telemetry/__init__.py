"""repro.telemetry — the parts of one observability layer for sim and live runs.

Each deployment has one :class:`~repro.sim.trace.Trace`, shared by its
network, transport and nodes, built from this package's parts:

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

``trace.count(...)`` adds to the registry's counters and
``trace.record(...)`` emits on the event stream. The metric-name/JSONL
contract is documented in ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

from repro.telemetry.crypto import CryptoMetricsPublisher
from repro.telemetry.events import EventStream, TelemetryEvent
from repro.telemetry.export import JsonlWriter, PeriodicSampler, read_records
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.summary import RunSummary, render_summary, summarize_records

__all__ = [
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
