"""Gateway service: the operator-facing face of the base station.

Wraps the protocol's :class:`~repro.protocol.base_station.BaseStationAgent`
(which does the cryptographic accept/reject work) and exposes what an
operations console needs: the verified reading stream and a
JSON-serializable status snapshot — clusters formed, delivery and
rejection totals, and the deployment's full telemetry snapshot (every
counter, gauge and histogram, plus event-buffer accounting). ``python -m
repro run-live`` prints exactly this snapshot after a live run; see
``docs/RUNTIME.md`` for the operator surface and ``docs/TELEMETRY.md``
for the metric contract.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.protocol.metrics import cluster_assignment

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.base_station import BaseStationAgent, DeliveredReading
    from repro.protocol.setup import DeployedProtocol

__all__ = ["GatewayService"]


class GatewayService:
    """Status/metrics facade over a deployment's base station."""

    def __init__(self, deployed: "DeployedProtocol") -> None:
        self.deployed = deployed

    @property
    def bs(self) -> "BaseStationAgent":
        """The underlying base-station agent."""
        return self.deployed.bs_agent

    def readings(self) -> "list[DeliveredReading]":
        """All readings the base station has verified and accepted."""
        return self.bs.delivered

    def delivered_count(self) -> int:
        """Number of accepted readings — O(1) (incremental counter)."""
        return self.bs.delivered_total

    @property
    def telemetry(self):
        """The deployment's :class:`~repro.telemetry.Telemetry`."""
        return self.deployed.network.trace.telemetry

    def status(self) -> dict:
        """One JSON-serializable snapshot of the deployment's health.

        The ``telemetry`` section is exactly
        :meth:`repro.telemetry.Telemetry.snapshot` — counters, gauges,
        histograms and event-buffer accounting — the same structure JSONL
        ``sample`` records embed, so console and stream consumers read
        one schema (docs/TELEMETRY.md).

        Delivery totals come from the base station's incremental
        counters, never from scanning ``bs.delivered`` — a status poll
        stays O(1) in the number of readings ever delivered, which is
        what lets the HTTP query plane (:mod:`repro.gateway`) poll it
        per request.
        """
        clusters = cluster_assignment(self.deployed)
        alive = sum(1 for a in self.deployed.agents.values() if a.node.alive)
        transport = self.deployed.network.transport
        snapshot = {
            "transport": transport.name,
            "clock_s": round(self.deployed.now(), 6),
            "nodes": len(self.deployed.agents),
            "nodes_alive": alive,
            "clusters_formed": len(clusters),
            "readings_delivered": self.bs.delivered_total,
            "distinct_sources": self.bs.distinct_sources,
            "readings_rejected": self.bs.rejected,
            "revoked_clusters": sorted(self.bs.revoked_cids),
            "suspicious_clusters": self.bs.suspicious_clusters(),
            "telemetry": self.telemetry.snapshot(),
            "frames": {
                "sent": transport.frames_sent,
                "delivered": transport.frames_delivered,
                "bytes_sent": transport.bytes_sent,
            },
        }
        return snapshot

    def to_json(self, indent: int | None = 2, **extra) -> str:
        """The :meth:`status` snapshot as JSON, with optional extra keys.

        Raises:
            ValueError: an ``extra`` key collides with a snapshot key —
                extras may only add sections, never silently overwrite
                the status contract.
        """
        snapshot = self.status()
        clobbered = sorted(set(extra) & set(snapshot))
        if clobbered:
            raise ValueError(
                f"extra keys {clobbered} collide with status snapshot keys; "
                f"pick non-conflicting names (the snapshot schema is fixed)"
            )
        snapshot.update(extra)
        return json.dumps(snapshot, indent=indent)
