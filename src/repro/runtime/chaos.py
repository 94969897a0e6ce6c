"""Seeded chaos scenarios for the live runtime (``repro chaos``).

A chaos run is one deterministic experiment: deploy a live network with a
:class:`~repro.runtime.faults.FaultPlan` wrapped around its transport,
drive a periodic reporting workload through the injected faults, and
measure what the base station actually received. The CLI exits nonzero
when delivery falls below ``--assert-delivery``, which is how the
``chaos-smoke`` CI job pins the reliability layer's value: the same
scenario must clear the bar with retransmits on and miss it with them
off.

Delivery is measured over *routable* sources — nodes with a hop path to
the base station. Random unit-disk deployments can contain islands with
no physical route at any loss rate; counting them would gate CI on
topology luck, not on protocol behavior (the report includes how many
sources were excluded, so a pathological topology is still visible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.protocol.config import ProtocolConfig
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import CrashEvent, FaultPlan, LinkFaults, Partition
from repro.workloads import PeriodicReporting

__all__ = ["ChaosScenario", "ChaosResult", "run_chaos", "parse_crash", "parse_partition"]


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded chaos experiment, fully declarative.

    The defaults are the acceptance scenario the chaos-smoke CI job runs:
    15% drop plus duplication and reordering on the loopback fabric, with
    hop-by-hop retransmissions and setup re-announcement on.
    """

    seed: int = 0
    n: int = 60
    density: float = 10.0
    transport: str = "loopback"
    #: Global per-delivery fault rates (see :class:`LinkFaults`).
    drop: float = 0.15
    duplicate: float = 0.05
    reorder: float = 0.05
    corrupt: float = 0.0
    delay_jitter_s: float = 0.0
    crashes: tuple[CrashEvent, ...] = ()
    partitions: tuple[Partition, ...] = ()
    #: The reliability layer: per-hop custody ACKs + retransmission and
    #: bounded setup re-announcement. Off reproduces the bare protocol.
    retransmits: bool = True
    #: Workload shape: every routable sensor reports ``rounds`` times at
    #: ``period_s`` spacing, then the run settles for ``settle_s``.
    period_s: float = 5.0
    rounds: int = 3
    settle_s: float = 10.0
    #: Setup re-announcements per HELLO/LINKINFO when retransmits are on.
    reannounce: int = 2

    def fault_plan(self) -> FaultPlan:
        """The :class:`FaultPlan` this scenario injects."""
        return FaultPlan(
            seed=self.seed,
            defaults=LinkFaults(
                drop=self.drop,
                duplicate=self.duplicate,
                reorder=self.reorder,
                corrupt=self.corrupt,
                delay_jitter_s=self.delay_jitter_s,
            ),
            crashes=self.crashes,
            partitions=self.partitions,
        )

    def protocol_config(self) -> ProtocolConfig:
        """The protocol tunables (reliability on or off)."""
        if not self.retransmits:
            return ProtocolConfig()
        return ProtocolConfig(
            hop_ack_enabled=True,
            setup_reannounce_count=self.reannounce,
            # Budget the settle phase for the re-announcement tail.
            settle_margin_s=1.0 + self.reannounce * 1.0,
        )


@dataclass(frozen=True)
class ChaosResult:
    """What one chaos run measured."""

    delivery_ratio: float
    sent: int
    delivered: int
    sources: int
    #: Sensors excluded from the workload for having no route to the BS.
    unroutable: int
    send_failures: int
    mean_latency_s: float | None
    duration_s: float
    counters: Mapping[str, int] = field(default_factory=dict)

    def counter(self, name: str) -> int:
        """A trace counter's final value (0 when never incremented)."""
        return int(self.counters.get(name, 0))


def run_chaos(scenario: ChaosScenario) -> ChaosResult:
    """Execute one scenario and return its measurements.

    Deterministic on the loopback transport: the
    deployment seed fixes the topology and protocol timers, the plan seed
    fixes every fault decision.
    """
    deployed, _metrics = deploy_live(
        n=scenario.n,
        density=scenario.density,
        seed=scenario.seed,
        transport=scenario.transport,
        config=scenario.protocol_config(),
        fault_plan=scenario.fault_plan(),
    )
    sources = deployed.gradient.routable()

    workload = PeriodicReporting(
        deployed, sources, period_s=scenario.period_s, rounds=scenario.rounds
    )
    workload.start()
    deployed.run_for(workload.duration_s + scenario.settle_s)

    latencies = workload.latencies()
    return ChaosResult(
        delivery_ratio=workload.delivery_ratio(),
        sent=len(workload.sent),
        delivered=len(deployed.bs_agent.delivered),
        sources=len(sources),
        unroutable=len(deployed.network.sensor_ids()) - len(sources),
        send_failures=workload.send_failures,
        mean_latency_s=(sum(latencies) / len(latencies)) if latencies else None,
        duration_s=deployed.now(),
        counters=dict(deployed.network.trace.counters),
    )


def parse_crash(spec: str) -> CrashEvent:
    """Parse a CLI crash spec ``NODE@AT`` or ``NODE@AT:RESTART``.

    Examples: ``7@20`` (node 7 dies at t=20s, permanently),
    ``7@20:35`` (and reboots at t=35s).

    Raises:
        ValueError: malformed spec (also on bad times, via CrashEvent).
    """
    node_part, _, time_part = spec.partition("@")
    if not time_part:
        raise ValueError(f"crash spec {spec!r} must look like NODE@AT[:RESTART]")
    at_part, _, restart_part = time_part.partition(":")
    return CrashEvent(
        node_id=int(node_part),
        at_s=float(at_part),
        restart_at_s=float(restart_part) if restart_part else None,
    )


def parse_partition(spec: str) -> Partition:
    """Parse a CLI partition spec ``N1,N2,...@START:END``.

    Example: ``3,9,12@15:40`` cuts nodes {3, 9, 12} off from everyone
    else between t=15s and t=40s.

    Raises:
        ValueError: malformed spec (also on bad windows, via Partition).
    """
    nodes_part, _, window_part = spec.partition("@")
    start_part, _, end_part = window_part.partition(":")
    if not (nodes_part and start_part and end_part):
        raise ValueError(f"partition spec {spec!r} must look like N1,N2@START:END")
    nodes = frozenset(int(tok) for tok in nodes_part.split(","))
    return Partition(nodes=nodes, start_s=float(start_part), end_s=float(end_part))
