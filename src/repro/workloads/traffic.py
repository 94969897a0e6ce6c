"""Reusable traffic workloads for a deployed protocol.

The paper evaluates the key-setup phase only; everything downstream
(examples, energy accounting, the load experiment) needs realistic data
traffic. Two generators:

* :class:`PeriodicReporting` — every selected sensor reports at a fixed
  period with a per-node phase offset (staggered duty cycle, the usual
  monitoring configuration);
* :class:`PoissonEvents` — physical events arrive as a Poisson process at
  random field positions; the ``k`` sensors nearest each event all report
  it (the redundancy that motivates the paper's data-fusion argument);
* :class:`ContinuousReporting` — like periodic reporting, but the source
  set is re-queried every tick, so nodes that join mid-run start
  reporting and departed nodes stop counting against delivery (the churn
  scenarios' workload, :mod:`repro.runtime.lifecycle`).

All record what was sent so experiments can compute delivery ratios and
latencies against the base station's log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.protocol.agent import ProtocolError
from repro.protocol.aggregation import encode_reading

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol


@dataclass(frozen=True)
class SentRecord:
    """One reading handed to the protocol by a workload."""

    time: float
    source: int
    event_id: int
    payload: bytes


class _WorkloadBase:
    def __init__(self, deployed: "DeployedProtocol") -> None:
        self.deployed = deployed
        self.sent: list[SentRecord] = []
        self.send_failures = 0

    def _send(self, source: int, event_id: int, payload: bytes) -> None:
        try:
            self.deployed.agents[source].send_reading(payload)
        except ProtocolError:
            # Orphaned/evicted sources are a legitimate runtime condition.
            self.send_failures += 1
            return
        self.sent.append(SentRecord(self.deployed.now(), source, event_id, payload))

    # -- result helpers -----------------------------------------------------

    def delivery_ratio(self) -> float:
        """Fraction of sent readings the base station accepted."""
        if not self.sent:
            return 1.0
        delivered = {
            (r.source, bytes(r.data)) for r in self.deployed.bs_agent.delivered
        }
        got = sum(1 for s in self.sent if (s.source, s.payload) in delivered)
        return got / len(self.sent)

    def latencies(self) -> list[float]:
        """Send-to-accept latency of each delivered reading (seconds)."""
        sent_at: dict[tuple[int, bytes], float] = {}
        for s in self.sent:
            sent_at.setdefault((s.source, s.payload), s.time)
        out = []
        for r in self.deployed.bs_agent.delivered:
            key = (r.source, bytes(r.data))
            if key in sent_at:
                out.append(r.time - sent_at.pop(key))
        return out

    def window_delivery_ratio(self, start_s: float, end_s: float) -> float:
        """Delivery ratio over readings sent in ``[start_s, end_s)``.

        The sliding-window health signal the lifecycle convergence
        tracker samples: 1.0 when nothing was sent in the window (an
        idle network is not a failing one).
        """
        window = [s for s in self.sent if start_s <= s.time < end_s]
        if not window:
            return 1.0
        delivered = {
            (r.source, bytes(r.data)) for r in self.deployed.bs_agent.delivered
        }
        got = sum(1 for s in window if (s.source, s.payload) in delivered)
        return got / len(window)


class PeriodicReporting(_WorkloadBase):
    """Fixed-period reporting from a set of sources, phase-staggered."""

    def __init__(
        self,
        deployed: "DeployedProtocol",
        sources: list[int],
        period_s: float,
        rounds: int,
        payload_fn: Callable[[int, int], bytes] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        super().__init__(deployed)
        self.sources = list(sources)
        self.period_s = period_s
        self.rounds = rounds
        self._payload_fn = payload_fn or (
            lambda src, k: encode_reading(k, float(src % 100), src)
        )
        self._rng = rng or np.random.default_rng(0)

    def start(self) -> None:
        """Schedule every report on the deployment's clock."""
        for source in self.sources:
            offset = float(self._rng.uniform(0.0, self.period_s))
            for k in range(self.rounds):
                self.deployed.schedule(
                    offset + k * self.period_s,
                    lambda s=source, kk=k: self._send(s, kk, self._payload_fn(s, kk)),
                )

    @property
    def duration_s(self) -> float:
        """Time span over which reports are scheduled."""
        return self.period_s * (self.rounds + 1)


class ContinuousReporting(_WorkloadBase):
    """Fixed-period reporting over a *live*, churning source set.

    Unlike :class:`PeriodicReporting`, which freezes its sources at
    start, this workload calls ``sources_fn()`` at every tick and
    schedules one report per returned source with a small phase jitter.
    Joined nodes start reporting as soon as the selector includes them;
    departed or orphaned nodes silently drop out instead of tanking the
    delivery ratio with sends the network was never asked to carry. A
    returned source with no route to the base station (gradient level
    -1) is skipped for that tick and counted in :attr:`unroutable`, so
    the readings the network was never offered stay visible next to the
    delivery ratio.
    """

    def __init__(
        self,
        deployed: "DeployedProtocol",
        sources_fn: Callable[[], list[int]],
        period_s: float,
        duration_s: float,
        payload_fn: Callable[[int, int], bytes] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if period_s <= 0 or duration_s <= 0:
            raise ValueError("period_s and duration_s must be > 0")
        super().__init__(deployed)
        self._sources_fn = sources_fn
        self.period_s = period_s
        self.duration_s = duration_s
        self._payload_fn = payload_fn or (
            lambda src, k: encode_reading(k, float(src % 100), src)
        )
        self._rng = rng or np.random.default_rng(0)
        self._round = 0
        self._t0 = 0.0
        #: Source-ticks skipped because the source had no route.
        self.unroutable = 0

    def start(self) -> None:
        """Begin ticking on the deployment's clock."""
        self._t0 = self.deployed.now()
        self.deployed.schedule(self.period_s, self._tick)

    def _tick(self) -> None:
        k = self._round
        self._round += 1
        gradient = self.deployed.gradient
        for source in self._sources_fn():
            if gradient.level(source) < 0:
                self.unroutable += 1
                continue
            offset = float(self._rng.uniform(0.0, 0.5 * self.period_s))
            self.deployed.schedule(
                offset,
                lambda s=source, kk=k: self._send(s, kk, self._payload_fn(s, kk)),
            )
        if self.deployed.now() - self._t0 + self.period_s < self.duration_s:
            self.deployed.schedule(self.period_s, self._tick)


class PoissonEvents(_WorkloadBase):
    """Poisson event arrivals, each reported by the k nearest sensors."""

    def __init__(
        self,
        deployed: "DeployedProtocol",
        rate_per_s: float,
        duration_s: float,
        reporters_per_event: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        if rate_per_s <= 0 or duration_s <= 0:
            raise ValueError("rate and duration must be > 0")
        if reporters_per_event < 1:
            raise ValueError("reporters_per_event must be >= 1")
        super().__init__(deployed)
        self.rate = rate_per_s
        self.duration_s = duration_s
        self.reporters = reporters_per_event
        self._rng = rng or np.random.default_rng(0)
        self.events: list[tuple[float, np.ndarray]] = []

    def start(self) -> None:
        """Draw the event process and schedule every report."""
        deployment = self.deployed.network.deployment
        routable = [
            nid
            for nid in self.deployed.gradient.routable()
            if self.deployed.network.nodes[nid].alive
        ]
        if not routable:
            return
        positions = np.array(
            [self.deployed.network.node(nid).position for nid in routable]
        )
        t = 0.0
        event_id = 0
        while True:
            t += float(self._rng.exponential(1.0 / self.rate))
            if t >= self.duration_s:
                break
            where = self._rng.uniform(0.0, deployment.side, size=2)
            self.events.append((t, where))
            d = np.linalg.norm(positions - where, axis=1)
            nearest = np.argsort(d)[: self.reporters]
            for idx in nearest:
                source = routable[int(idx)]
                payload = encode_reading(event_id, float(d[int(idx)]), source)
                self.deployed.schedule(
                    t, lambda s=source, e=event_id, p=payload: self._send(s, e, p)
                )
            event_id += 1

    def delivered_event_fraction(self) -> float:
        """Fraction of events for which at least one report arrived."""
        if not self.events:
            return 1.0
        sent_events = {s.event_id for s in self.sent}
        delivered_payloads = {
            bytes(r.data) for r in self.deployed.bs_agent.delivered
        }
        delivered_events = {
            s.event_id for s in self.sent if s.payload in delivered_payloads
        }
        return len(delivered_events) / max(1, len(sent_events))
