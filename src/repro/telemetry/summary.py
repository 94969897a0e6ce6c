"""Fold an exported telemetry stream back into SetupMetrics shape.

The paper's figures are functions of a handful of counters and gauges;
:func:`summarize_records` recovers them from a metrics JSONL file (the
final ``summary`` record, falling back to the last ``sample``), so a
*live* run measured with ``--metrics-out`` can feed the same analyses as
a post-hoc :class:`repro.protocol.metrics.SetupMetrics` — that
equivalence is pinned by ``tests/telemetry/test_cli_metrics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunSummary", "summarize_records", "render_summary"]


@dataclass(frozen=True)
class RunSummary:
    """Counter/gauge totals of one run, named like ``SetupMetrics``."""

    #: Transport backend the run used ("loopback", "udp", or "?").
    transport: str
    #: Number of sensor nodes (0 when the stream did not record it).
    n: int
    #: Protocol time of the snapshot the summary was built from.
    clock_s: float
    #: HELLO broadcasts during key setup (counter ``tx.hello``).
    hello_messages: int
    #: LINKINFO broadcasts during key setup (counter ``tx.linkinfo``).
    linkinfo_messages: int
    #: Clusters formed (gauge ``setup.clusters``).
    clusters: int
    #: Mean cluster keys stored per node (gauge ``setup.mean_keys_per_node``).
    mean_keys_per_node: float
    #: Readings the base station verified and accepted (``bs.delivered``).
    readings_delivered: int
    #: Events logged/dropped by the bounded stream buffer, when recorded.
    events_logged: int = 0
    events_dropped: int = 0
    #: The full counter map of the snapshot (sorted by name).
    counters: dict = field(default_factory=dict)

    @property
    def messages_per_node(self) -> float:
        """Fig. 9: setup messages transmitted per node (both phases)."""
        if not self.n:
            return 0.0
        return (self.hello_messages + self.linkinfo_messages) / self.n


def summarize_records(records: list[dict]) -> RunSummary:
    """Build a :class:`RunSummary` from parsed JSONL records.

    Uses the last ``summary`` record if present, else the last ``sample``.
    Raises ``ValueError`` when the stream contains neither (an event-only
    stream has no metric totals to summarize), or when that record's
    fields do not have the exported shape.
    """
    snapshot = None
    for record in records:
        if record.get("type") in ("summary", "sample"):
            snapshot = record
    if snapshot is None:
        raise ValueError("no 'summary' or 'sample' record in the stream")
    try:
        metrics = snapshot.get("metrics", {})
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
        return RunSummary(
            transport=str(snapshot.get("transport", "?")),
            n=int(snapshot.get("nodes", gauges.get("setup.nodes", 0))),
            clock_s=float(snapshot.get("t", 0.0)),
            hello_messages=int(counters.get("tx.hello", 0)),
            linkinfo_messages=int(counters.get("tx.linkinfo", 0)),
            clusters=int(gauges.get("setup.clusters", 0)),
            mean_keys_per_node=float(gauges.get("setup.mean_keys_per_node", 0.0)),
            readings_delivered=int(counters.get("bs.delivered", 0)),
            events_logged=sum(1 for r in records if r.get("type") == "event"),
            events_dropped=int(snapshot.get("events_dropped", 0)),
            counters=dict(counters),
        )
    except (AttributeError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {snapshot['type']} record: {exc}") from exc


def render_summary(summary: RunSummary) -> str:
    """Human-readable multi-line report of a :class:`RunSummary`."""
    lines = [
        f"run summary — transport={summary.transport}, "
        f"n={summary.n}, clock={summary.clock_s:.3f}s",
        "  setup (SetupMetrics-equivalent):",
        f"    hello_messages      {summary.hello_messages}",
        f"    linkinfo_messages   {summary.linkinfo_messages}",
        f"    messages_per_node   {summary.messages_per_node:.4f}",
        f"    clusters            {summary.clusters}",
        f"    mean_keys_per_node  {summary.mean_keys_per_node:.3f}",
        "  data plane:",
        f"    readings_delivered  {summary.readings_delivered}",
        f"  events: {summary.events_logged} exported, "
        f"{summary.events_dropped} dropped from the buffer",
        f"  counters tracked: {len(summary.counters)}",
    ]
    return "\n".join(lines)
