"""The benchmark's four workloads, their correctness checks and metrics.

Run as a script, this module measures ONE workload in the current
process and prints one JSON line with every metric it computed::

    PYTHONPATH=src python3 perf/workloads.py --workload soak-clean --seed 0 --seconds 15

``perf/run.py`` starts it once per workload, in its own process, and
renders the report. Every input comes from ``--seed``; the work done is
sized from ``--seconds`` (a number of *units*, see :func:`unit_count`),
never from the clock, so every count and protocol-time latency is exact
for a given ``(seed, seconds)`` pair and only wall times vary.

A unit is one deployment and its traffic. ``setup-paper`` repeats the
same seeded deployment; the traffic workloads give each unit its own
topology, seeded from ``--seed`` and the unit index, because one 100-node
topology moves throughput by tens of percent and pooling several units
keeps a run's numbers close to the typical topology.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from layers import LayerTracer, patched
from speed import SpeedProbe
from repro.crypto.stats import STATS
from repro.protocol.agent import ProtocolAgent
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import deploy
from repro.runtime import lifecycle
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.workloads import SoakWorkload

DENSITY = 10.0

#: The paper's deployment scale.
SETUP_N = 3600
#: Bytes of the cluster key a sensor ends setup holding: the payload
#: ``setup-paper`` delivers.
CLUSTER_KEY_BYTES = 16

SOAK_N = 100
#: Offered load, readings per protocol second, round-robin over sources.
SOAK_RATE = 150.0
#: Protocol seconds of offered traffic per unit; the first
#: ``SOAK_WARMUP_S`` of it is left out of latency and delivery figures.
SOAK_DURATION_S = 3.0
SOAK_WARMUP_S = 0.5

#: Unit seeds of the traffic workloads are ``seed * UNIT_STRIDE + index``.
UNIT_STRIDE = 1000
#: Unit index of the untimed warm-up unit (never a measured unit).
WARMUP_INDEX = UNIT_STRIDE - 1


def unit_seed(seed: int, index: int) -> int:
    """Deployment seed of unit ``index`` of a run seeded ``seed``."""
    return seed * UNIT_STRIDE + index


def _now() -> int:
    return time.perf_counter_ns()


@dataclass
class Unit:
    """What one unit measured. Counts are exact; ``*_span`` are wall-clock
    ``(start, end)`` pairs in ``perf_counter_ns``, timed by :func:`_now`."""

    #: The deployment (and, for a soak, its workload scheduling).
    setup_span: tuple[int, int]
    #: The phase that produces ``delivered``.
    run_span: tuple[int, int]
    sensors: int
    #: Operations offered (readings handed to the protocol plus refusals;
    #: for setup, sensors) and completed (readings the BS accepted;
    #: sensors that ended setup holding their cluster key). A soak counts
    #: both over its measurement window only.
    attempted: int
    delivered: int
    #: Operations completed over all of ``run_span`` and their payload bytes.
    accepted: int
    payload_bytes: int
    latencies_s: list[float]
    #: Trace counters when setup ended, and their growth over ``run_span``.
    setup_counters: dict[str, int]
    counters: dict[str, int]
    aead_calls: int
    events: int
    #: DATA frames agents accepted and forwarded during ``run_span``.
    forwarded: int
    #: Alive sensors left without a usable cluster key at the end.
    orphans: int = 0
    failures: list[str] = field(default_factory=list)

    def exact(self) -> tuple:
        """Everything a unit computes that must not depend on timing."""
        return (
            self.attempted,
            self.delivered,
            self.accepted,
            self.payload_bytes,
            tuple(self.latencies_s),
            tuple(sorted(self.setup_counters.items())),
            tuple(sorted(self.counters.items())),
            self.aead_calls,
            self.events,
            self.forwarded,
            self.orphans,
        )


# ---------------------------------------------------------------------------
# Shared measurement helpers
# ---------------------------------------------------------------------------


def _aead_calls() -> int:
    return STATS.seals + STATS.opens


def _events(deployed) -> int:
    transport = deployed.network.transport
    return getattr(transport, "inner", transport).events_executed


def _forwarded(deployed) -> int:
    return sum(agent.forwarded_count for agent in deployed.agents.values())


class _Snapshot:
    """Counter state of a deployment at one instant."""

    def __init__(self, deployed) -> None:
        self.counters = dict(deployed.network.trace.counters)
        self.aead = _aead_calls()
        self.events = _events(deployed)
        self.forwarded = _forwarded(deployed)

    def growth(self, deployed) -> tuple[dict[str, int], int, int, int]:
        """Counter deltas, AEAD calls, events and forwards since the snapshot."""
        now = deployed.network.trace.counters
        deltas = {
            name: value - self.counters.get(name, 0)
            for name, value in now.items()
            if value != self.counters.get(name, 0)
        }
        return (
            deltas,
            _aead_calls() - self.aead,
            _events(deployed) - self.events,
            _forwarded(deployed) - self.forwarded,
        )


def _pairing_failures(deployed, sent) -> list[str]:
    """Every reading the BS accepted must pair with a sent ``(source, payload)``."""
    sent_keys = {(record.source, record.payload) for record in sent}
    stray = sum(
        1
        for reading in deployed.bs_agent.delivered
        if (reading.source, bytes(reading.data)) not in sent_keys
    )
    return [f"{stray} accepted reading(s) match no sent reading"] if stray else []


def _setup_failures(deployed) -> list[str]:
    """The paper's post-setup invariants, checked on live agent state."""
    failures = []
    agents = deployed.agents
    network = deployed.network
    unkeyed = 0
    km_left = 0
    clusters: dict[int, list[int]] = {}
    for nid, agent in agents.items():
        st = agent.state
        if not st.preload.master_key.erased:
            km_left += 1
        if st.cid is None or not st.keyring.has(st.cid):
            unkeyed += 1
        else:
            clusters.setdefault(st.cid, []).append(nid)
    if unkeyed:
        failures.append(f"{unkeyed} sensor(s) hold no cluster key")
    if km_left:
        failures.append(f"K_m not erased on {km_left} sensor(s)")
    no_head = wrong_key = far = 0
    for cid, members in clusters.items():
        head = agents.get(cid)
        if head is None or head.state.cid != cid:
            no_head += 1
            continue
        key = head.state.preload.cluster_key
        if head.state.keyring.get(cid) != key:
            wrong_key += 1
        neighbors = set(network.adjacency(cid))
        for nid in members:
            if nid != cid and nid not in neighbors:
                far += 1
            if agents[nid].state.keyring.get(cid) != key:
                wrong_key += 1
    if no_head:
        failures.append(f"{no_head} cluster(s) do not contain their head")
    if wrong_key:
        failures.append(f"{wrong_key} sensor(s) hold a key other than their head's")
    if far:
        failures.append(f"{far} member(s) not adjacent to their head (diameter > 2 hops)")
    return failures


def _keyed(deployed) -> int:
    return sum(
        1
        for agent in deployed.agents.values()
        if agent.state.cid is not None and agent.state.keyring.has(agent.state.cid)
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One named set of inputs. Subclasses define the unit."""

    name = ""
    #: Nominal wall seconds of one unit on the reference box; sizes a run.
    unit_s = 1.0

    def prepare(self, seed: int) -> None:
        """Untimed warm-up (and reference values) before the measured units."""

    def unit(self, seed: int, index: int) -> Unit:
        """Run and check one unit."""
        raise NotImplementedError


class SetupPaper(Workload):
    """``deploy_live(3600, 10.0, seed)`` with protocol defaults, repeated."""

    name = "setup-paper"
    unit_s = 1.6

    def prepare(self, seed: int) -> None:
        # The warm-up deployment also records when each sensor first held
        # its cluster key: heads when their election timer fires, members
        # when a HELLO is accepted. The timed units are identical
        # deployments, so they are left unprobed.
        keyed_at: dict[int, float] = {}

        def probe(handler: Callable) -> Callable:
            def probed(agent, *args):
                handler(agent, *args)
                if agent.state.cid is not None and agent.node.id not in keyed_at:
                    keyed_at[agent.node.id] = agent.node.now()

            return probed

        with patched(ProtocolAgent, "_fire_hello", probe), patched(
            ProtocolAgent, "_on_hello", probe
        ):
            deployed, _ = deploy_live(SETUP_N, DENSITY, seed=seed)
        self.key_latencies = sorted(keyed_at.values())
        self.frames = deployed.network.trace.counters["net.frames_sent"]
        # Collect the warm-up before the next deployment is built: left to
        # the collector's own schedule, its cycles outlive it or not
        # depending on the seed, and the peak RSS with them.
        del deployed
        gc.collect()
        # Seeded reference: the same deployment on the discrete-event
        # simulator's fabric must form the same clusters.
        self.clusters = deploy(SETUP_N, DENSITY, seed=seed)[1].cluster_count

    def unit(self, seed: int, index: int) -> Unit:
        gc.collect()
        aead = _aead_calls()
        start = _now()
        deployed, metrics = deploy_live(SETUP_N, DENSITY, seed=seed)
        span = (start, _now())
        aead = _aead_calls() - aead
        counters = dict(deployed.network.trace.counters)
        failures = _setup_failures(deployed)
        if metrics.cluster_count != self.clusters:
            failures.append(
                f"{metrics.cluster_count} clusters, seeded reference has {self.clusters}"
            )
        if counters["net.frames_sent"] != self.frames:
            failures.append("frame count differs from the warm-up deployment")
        keyed = _keyed(deployed)
        return Unit(
            setup_span=span,
            run_span=span,
            sensors=len(deployed.agents),
            attempted=len(deployed.agents),
            delivered=keyed,
            accepted=keyed,
            payload_bytes=CLUSTER_KEY_BYTES * keyed,
            latencies_s=self.key_latencies if index == 0 else [],
            setup_counters=counters,
            counters=counters,
            aead_calls=aead,
            events=_events(deployed),
            forwarded=0,
            failures=failures,
        )


class Soak(Workload):
    """Open-loop soak at ``SOAK_RATE`` readings/protocol-s over a 100-node field."""

    def __init__(self, lossy: bool) -> None:
        self.lossy = lossy
        self.name = "soak-lossy" if lossy else "soak-clean"
        self.unit_s = 1.7 if lossy else 1.1
        #: Protocol seconds run after the last send so readings in flight
        #: land; retransmit backoff on the lossy fabric reaches 2 s.
        self.settle_s = 2.5 if lossy else 1.5

    def prepare(self, seed: int) -> None:
        self._run(unit_seed(seed, WARMUP_INDEX), duration_s=2.0)

    def unit(self, seed: int, index: int) -> Unit:
        return self._run(unit_seed(seed, index), SOAK_DURATION_S)

    def _run(self, seed: int, duration_s: float) -> Unit:
        fault_plan = None
        if self.lossy:
            fault_plan = FaultPlan(
                seed=seed, defaults=LinkFaults(drop=0.15, duplicate=0.05, reorder=0.05)
            )
        config = ProtocolConfig(hop_ack_enabled=self.lossy)
        gc.collect()
        start = _now()
        deployed, _ = deploy_live(
            SOAK_N, DENSITY, seed=seed, config=config, fault_plan=fault_plan
        )
        workload = SoakWorkload(
            deployed, SOAK_RATE, duration_s, warmup_s=SOAK_WARMUP_S, seed=seed
        )
        workload.start()
        setup_span = (start, _now())
        before = _Snapshot(deployed)
        start = _now()
        deployed.run_for(duration_s + self.settle_s)
        run_span = (start, _now())
        counters, aead, events, forwarded = before.growth(deployed)
        stats = workload.stats()
        # No reading exists before the run, so every accepted one arrived
        # during ``run_span``, the span the frame and byte counters cover.
        accepted = deployed.bs_agent.delivered
        failures = _pairing_failures(deployed, workload.sent)
        if not 0 < stats.delivered <= stats.sent:
            failures.append(f"{stats.delivered} delivered of {stats.sent} sent")
        if not self.lossy:
            if stats.delivered != stats.sent or stats.send_failures:
                failures.append(
                    f"clean fabric lost readings: {stats.delivered}/{stats.sent} "
                    f"delivered, {stats.send_failures} refused"
                )
            if counters.get("drop.data_bad_auth", 0):
                failures.append("clean fabric dropped frames as badly authenticated")
        return Unit(
            setup_span=setup_span,
            run_span=run_span,
            sensors=len(deployed.agents),
            attempted=stats.sent + stats.send_failures,
            delivered=stats.delivered,
            accepted=len(accepted),
            payload_bytes=sum(len(reading.data) for reading in accepted),
            latencies_s=list(stats.latencies_s),
            setup_counters=before.counters,
            counters=counters,
            aead_calls=aead,
            events=events,
            forwarded=forwarded,
            failures=failures,
        )


class ChurnWaypoint(Workload):
    """``run_churn(ChurnScenario(seed=...))`` with the scenario's defaults."""

    name = "churn-waypoint"
    unit_s = 1.35

    def prepare(self, seed: int) -> None:
        self._run(lifecycle.ChurnScenario(seed=unit_seed(seed, WARMUP_INDEX), duration_s=30.0))

    def unit(self, seed: int, index: int) -> Unit:
        return self._run(lifecycle.ChurnScenario(seed=unit_seed(seed, index)))

    def _run(self, scenario: "lifecycle.ChurnScenario") -> Unit:
        seen: dict = {}

        # run_churn deploys and builds its workload internally; these two
        # wrappers time the deployment and keep handles to both objects.
        def timed_deploy(deploy_live: Callable) -> Callable:
            def deploy(*args, **kwargs):
                start = _now()
                out = deploy_live(*args, **kwargs)
                seen["setup_span"] = (start, _now())
                seen["deployed"] = out[0]
                seen["before"] = _Snapshot(out[0])
                seen["run_start"] = _now()
                return out

            return deploy

        def kept(cls: Callable) -> Callable:
            def build(*args, **kwargs):
                seen["workload"] = workload = cls(*args, **kwargs)
                return workload

            return build

        gc.collect()
        with patched(lifecycle, "deploy_live", timed_deploy), patched(
            lifecycle, "ContinuousReporting", kept
        ):
            result = lifecycle.run_churn(scenario)
        run_span = (seen["run_start"], _now())
        deployed = seen["deployed"]
        workload = seen["workload"]
        counters, aead, events, forwarded = seen["before"].growth(deployed)
        latencies = workload.latencies()
        failures = _pairing_failures(deployed, workload.sent)
        orphans = [
            nid
            for nid in deployed.network.alive_sensor_ids()
            if lifecycle.ConvergenceTracker.is_orphan(deployed.agents.get(nid))
        ]
        # A node whose join completes into a cluster while that cluster's
        # revocation is in flight is missing from the decommission list and
        # stays orphaned (unit seed 1007). Orphans lost any other way fail.
        revoked_out = [
            nid
            for nid in orphans
            if deployed.bs_agent.revoked_cids
            and nid in deployed.agents
            and deployed.agents[nid].operational
            and deployed.agents[nid].state.cid is None
        ]
        if len(orphans) > len(revoked_out):
            failures.append(
                f"{len(orphans) - len(revoked_out)} node(s) orphaned at end of run "
                "for a reason other than a revocation"
            )
        if not 0 < len(latencies) <= len(workload.sent):
            failures.append(f"{len(latencies)} delivered of {len(workload.sent)} sent")
        return Unit(
            setup_span=seen["setup_span"],
            run_span=run_span,
            sensors=scenario.n,
            attempted=len(workload.sent) + workload.send_failures,
            delivered=len(latencies),
            accepted=len(deployed.bs_agent.delivered),
            payload_bytes=sum(len(r.data) for r in deployed.bs_agent.delivered),
            latencies_s=latencies,
            setup_counters=seen["before"].counters,
            counters=counters,
            aead_calls=aead,
            events=events,
            forwarded=forwarded,
            orphans=len(orphans),
            failures=failures,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SetupPaper(), Soak(lossy=False), Soak(lossy=True), ChurnWaypoint())
}


def unit_count(workload: Workload, seconds: float) -> int:
    """Units in a run of ``seconds``: fixed by the arguments, not the clock."""
    return max(2, round(seconds / workload.unit_s))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = round(q / 100.0 * (len(sorted_values) - 1))
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


def _total(units: list[Unit], name: str) -> int:
    return sum(u.counters.get(name, 0) for u in units)


def end_to_end(units: list[Unit], seconds: Callable[[tuple[int, int]], float]) -> dict[str, float]:
    """The end-to-end metrics, pooled over ``units``; ``seconds`` times a span."""
    accepted = max(1, sum(u.accepted for u in units))
    latencies = sorted(x for u in units for x in u.latencies_s)
    # Readings per executed event are exact; the pace (events per second)
    # is the median unit's, so a unit the host slowed more than the
    # speed probe saw does not move the result.
    pace = statistics.median(u.events / seconds(u.run_span) for u in units)
    return {
        "setup_s": statistics.median(seconds(u.setup_span) for u in units),
        "delivered_per_s": accepted / sum(u.events for u in units) * pace,
        "delivered_share": sum(u.delivered for u in units) / sum(u.attempted for u in units),
        "tx_per_delivered": _total(units, "net.frames_sent") / accepted,
        "air_bytes_per_payload_byte": _total(units, "net.bytes_sent")
        / max(1, sum(u.payload_bytes for u in units)),
        "latency_p50_ms": 1e3 * _percentile(latencies, 50) if latencies else 0.0,
        "latency_mean_ms": 1e3 * statistics.fmean(latencies) if latencies else 0.0,
        "setup_tx_per_node": sum(u.setup_counters.get("tx.setup", 0) for u in units)
        / sum(u.sensors for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_tail(units: list[Unit]) -> dict[str, float]:
    """The 99th percentile of the pooled latencies and the sample count.

    Reported, not bounded: retransmit backoff leaves gaps in the latency
    distribution, and the 99th percentile of a lossy or churning run
    falls on either side of one from seed to seed.
    """
    latencies = sorted(x for u in units for x in u.latencies_s)
    return {
        "latency.p99_ms": 1e3 * _percentile(latencies, 99) if latencies else 0.0,
        "latency.samples": len(latencies),
    }


def exact_counts(units: list[Unit]) -> dict[str, float]:
    """Counts from the deployments' own counters (untraced units)."""
    accepted = max(1, sum(u.accepted for u in units))
    sent = _total(units, "net.frames_sent")
    received = _total(units, "net.frames_delivered")
    forwarded = sum(u.forwarded for u in units)
    bs_data = sum(
        value
        for u in units
        for name, value in u.counters.items()
        if name in ("bs.delivered", "bs.duplicate_path") or name.startswith("bs.drop_")
    )
    agent_data = forwarded + sum(
        value for u in units for name, value in u.counters.items() if name.startswith("drop.data_")
    )
    data_received = bs_data + agent_data
    useful = forwarded + _total(units, "bs.delivered")
    return {
        "net.frames_sent": sent,
        "net.frames_delivered": received,
        "net.fanout": received / max(1, sent),
        "engine.events_executed": sum(u.events for u in units),
        "crypto.aead_calls_per_frame": sum(u.aead_calls for u in units) / max(1, sent),
        "dedup.hits_per_reading": _total(units, "forward.dedup_hit") / accepted,
        "forward.useful_share": useful / data_received if data_received else 0.0,
        "drop.data_uphill": _total(units, "drop.data_uphill"),
        "drop.data_duplicate": _total(units, "drop.data_duplicate"),
        "drop.data_replay": _total(units, "drop.data_replay"),
        "retx.sent": _total(units, "net.retx.sent"),
        "retx.per_reading": _total(units, "net.retx.sent") / accepted,
        "ack.sent": _total(units, "tx.ack"),
        "fault.dropped": _total(units, "fault.drop"),
        "mobility.links_changed": _total(units, "lifecycle.mobility.links_added")
        + _total(units, "lifecycle.mobility.links_removed"),
        "lifecycle.final_orphans": sum(u.orphans for u in units),
    }


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def _pass(workload: Workload, seed: int, count: int) -> tuple[list[Unit], float]:
    """Run ``count`` units; returns them and their summed wall time."""
    units = []
    wall = 0.0
    for index in range(count):
        start = time.perf_counter()
        units.append(workload.unit(seed, index))
        wall += time.perf_counter() - start
    return units, wall


def measure(
    name: str, seed: int, seconds: float, trace: bool, spans_out: str | None = None
) -> dict:
    """Measure workload ``name``; the result dict ``perf/run.py`` renders.

    With ``trace`` the untraced units are followed by the same units
    under :class:`~layers.LayerTracer`; the traced units must reproduce
    every exact count of the untraced ones.
    """
    workload = WORKLOADS[name]
    count = unit_count(workload, seconds)
    workload.prepare(seed)
    probe = SpeedProbe()
    start = _now()
    with probe:
        units, wall = _pass(workload, seed, count)
    span = (start, _now())
    result: dict = {
        "workload": name,
        "seed": seed,
        "units": count,
        "host_speed": probe.seconds(span) / ((span[1] - span[0]) / 1e9),
        "end_to_end": end_to_end(units, probe.seconds),
        "latency_tail": latency_tail(units),
        "failures": sorted({f for u in units for f in u.failures}),
        "ops": sum(u.attempted for u in units),
        "ops_delivered": sum(u.delivered for u in units),
    }
    if trace:
        tracer = LayerTracer(span_limit=1_000_000 if spans_out else 0)
        with tracer:
            traced, traced_wall = _pass(workload, seed, count)
        if [u.exact() for u in traced] != [u.exact() for u in units]:
            result["failures"].append("traced units differ from untraced units")
        layers = tracer.report(traced_wall)
        per_layer: dict[str, float] = {
            key: value for key, value in layers.items() if not key.endswith(".self_s")
        }
        per_layer.update(exact_counts(units))
        per_layer.update(result["latency_tail"])
        per_layer["engine.peak_pending"] = tracer.peak_pending
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead"] = traced_wall / wall
        result["per_layer"] = per_layer
        result["self_s"] = {
            key: value for key, value in layers.items() if key.endswith(".self_s")
        }
        if spans_out:
            result["spans_written"] = tracer.write_spans(spans_out)
            result["spans_dropped"] = tracer.spans_dropped
    # A failed check fails the run: all of its operations count as failed.
    result["ops_failed"] = result["ops"] if result["failures"] else 0
    return result


def main(argv: list[str] | None = None) -> int:
    """Measure one workload and print the result as one JSON line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
