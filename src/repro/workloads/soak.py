"""Sustained-forwarding soak workload: constant offered load for a fixed time.

Where :class:`~repro.workloads.traffic.PeriodicReporting` models a duty
cycle and :class:`~repro.workloads.traffic.PoissonEvents` models physical
events, :class:`SoakWorkload` models *pressure*: readings are offered to
the network at a fixed aggregate rate (frames per protocol-second),
round-robin across every routable source, for a fixed duration — the
steady state the paper's Step-1/Step-2 forwarding exists to secure. It is
the engine of ``repro bench forwarding`` (see docs/WORKLOADS.md for the
methodology and docs/BENCHMARKS.md for the numbers it gates).

Measurement discipline:

* the first ``warmup_s`` of traffic primes dedup caches, retransmit state
  and counter windows but is excluded from every reported statistic;
* payload values come from per-node :mod:`repro.workloads.streams`
  generators, so dedup and fusion see realistic (non-constant) readings;
* latency is protocol time from first send to base-station accept —
  deterministic on the loopback fabric;
* hop latency normalizes each reading's latency by its source's hop
  distance at send time, making numbers comparable across topologies.

While the workload runs it publishes live ``forward.soak.*`` metrics into
the deployment's registry (documented in docs/TELEMETRY.md), so a
``repro serve`` dashboard attached to the same deployment sees data-plane
health in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.protocol.aggregation import encode_reading
from repro.workloads.streams import SensorStream, default_node_stream
from repro.workloads.traffic import _WorkloadBase

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.base_station import DeliveredReading
    from repro.protocol.setup import DeployedProtocol

__all__ = ["SoakStats", "SoakWorkload"]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[int(rank)]


@dataclass(frozen=True)
class SoakStats:
    """Measurement-window statistics of one soak run."""

    #: Readings offered inside the measurement window.
    sent: int
    #: Of those, readings the base station accepted.
    delivered: int
    #: ``send_reading`` refusals (orphaned/evicted sources), whole run.
    send_failures: int
    #: Protocol seconds of the measurement window.
    window_s: float
    #: End-to-end protocol-time latencies (s) of delivered window readings.
    latencies_s: tuple[float, ...]
    #: The same latencies divided by the source's hop distance at send time.
    hop_latencies_s: tuple[float, ...]

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent over the measurement window (1.0 when idle)."""
        return self.delivered / self.sent if self.sent else 1.0

    def latency_percentile_ms(self, q: float) -> float:
        """End-to-end latency percentile in milliseconds."""
        return 1e3 * _percentile(sorted(self.latencies_s), q)

    def hop_latency_percentile_ms(self, q: float) -> float:
        """Per-hop latency percentile in milliseconds."""
        return 1e3 * _percentile(sorted(self.hop_latencies_s), q)


class SoakWorkload(_WorkloadBase):
    """Constant-offered-load soak over every routable source.

    ``offered_load_fps`` is the aggregate offered rate in readings per
    *protocol* second; sends are spaced ``1/offered_load_fps`` apart and
    assigned round-robin over the routable sources, each reading carrying
    the source's stream value at its send instant. ``start()`` schedules
    the whole run on the deployment's clock; drive it with
    ``deployed.run_for(duration_s + settle)`` and read :meth:`stats`.
    """

    def __init__(
        self,
        deployed: "DeployedProtocol",
        offered_load_fps: float,
        duration_s: float,
        warmup_s: float = 0.0,
        sources: "list[int] | None" = None,
        streams: "dict[int, SensorStream] | None" = None,
        seed: int = 0,
    ) -> None:
        if offered_load_fps <= 0 or duration_s <= 0:
            raise ValueError("offered_load_fps and duration_s must be > 0")
        if not 0 <= warmup_s < duration_s:
            raise ValueError("warmup_s must be in [0, duration_s)")
        super().__init__(deployed)
        self.offered_load_fps = offered_load_fps
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        if sources is None:
            sources = [
                nid
                for nid in deployed.gradient.routable()
                if deployed.network.nodes[nid].alive
            ]
        if not sources:
            raise ValueError("no routable sources to drive")
        self.sources = list(sources)
        self._streams: dict[int, SensorStream] = dict(streams or {})
        for nid in self.sources:
            if nid not in self._streams:
                self._streams[nid] = default_node_stream(seed, nid)
        #: Source hop distance snapshotted at start(), for hop latency.
        self._hops: dict[int, int] = {}
        self._t0: float | None = None
        self._sent_at: dict[tuple[int, bytes], float] = {}
        self._delivered_at: dict[tuple[int, bytes], float] = {}
        self._trace = deployed.network.trace

    # -- driving ------------------------------------------------------------

    def start(self) -> None:
        """Schedule the full soak on the deployment's clock.

        Streams are sampled eagerly here, in send order (they require
        non-decreasing time), so scheduling cost is paid before the
        clock starts moving and the timed run is pure forwarding.
        """
        t0 = self.deployed.now()
        self._t0 = t0
        self._hops = {
            nid: max(1, self.deployed.gradient.level(nid))
            for nid in self.sources
        }
        self.deployed.bs_agent.add_delivery_listener(self._on_delivery)
        registry = self._trace.registry
        registry.gauge("forward.soak.offered_load_fps", self.offered_load_fps)
        interval = 1.0 / self.offered_load_fps
        n_sends = int(self.duration_s * self.offered_load_fps)
        for k in range(n_sends):
            offset = k * interval
            source = self.sources[k % len(self.sources)]
            value = self._streams[source].sample(t0 + offset)
            payload = encode_reading(k, value, source)
            self.deployed.schedule(
                offset, lambda s=source, e=k, p=payload: self._soak_send(s, e, p)
            )

    def _soak_send(self, source: int, event_id: int, payload: bytes) -> None:
        before = len(self.sent)
        self._send(source, event_id, payload)
        if len(self.sent) > before:
            self._trace.count("forward.soak.sent")
            self._sent_at.setdefault((source, payload), self.sent[-1].time)
        else:
            self._trace.count("forward.soak.send_failures")

    def _on_delivery(self, reading: "DeliveredReading") -> None:
        key = (reading.source, bytes(reading.data))
        sent_at = self._sent_at.get(key)
        if sent_at is None or key in self._delivered_at:
            return  # not ours, or a duplicate accept we already timed
        self._delivered_at[key] = reading.time
        self._trace.count("forward.soak.delivered")
        self._trace.registry.observe(
            "forward.soak.latency_ms", int(1e3 * (reading.time - sent_at))
        )

    # -- results ------------------------------------------------------------

    def measurement_window(self) -> tuple[float, float]:
        """``(start, end)`` protocol times of the measurement window."""
        t0 = self._t0 if self._t0 is not None else 0.0
        return t0 + self.warmup_s, t0 + self.duration_s

    def stats(self) -> SoakStats:
        """Measurement-window statistics (call after the run has settled).

        Also publishes the final ``forward.soak.delivery_ratio`` /
        ``forward.soak.p50_latency_ms`` / ``forward.soak.p99_latency_ms``
        gauges so dashboards read the settled values.
        """
        lo, hi = self.measurement_window()
        sent_at: dict[tuple[int, bytes], float] = {}
        window_sent = 0
        for record in self.sent:
            if lo <= record.time:
                window_sent += 1
                sent_at.setdefault((record.source, record.payload), record.time)
        latencies: list[float] = []
        hop_latencies: list[float] = []
        delivered = 0
        for key, t_send in sent_at.items():
            t_accept = self._delivered_at.get(key)
            if t_accept is None:
                continue
            delivered += 1
            latency = t_accept - t_send
            latencies.append(latency)
            hop_latencies.append(latency / self._hops.get(key[0], 1))
        stats = SoakStats(
            sent=window_sent,
            delivered=delivered,
            send_failures=self.send_failures,
            window_s=hi - lo,
            latencies_s=tuple(latencies),
            hop_latencies_s=tuple(hop_latencies),
        )
        registry = self._trace.registry
        registry.gauge("forward.soak.delivery_ratio", stats.delivery_ratio)
        registry.gauge("forward.soak.p50_latency_ms", stats.latency_percentile_ms(50))
        registry.gauge("forward.soak.p99_latency_ms", stats.latency_percentile_ms(99))
        return stats
