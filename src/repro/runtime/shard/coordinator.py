"""The shard coordinator: deployment owner, window clock, telemetry merge.

Scaling law this module exists for: key setup is dominated by per-delivery
AEAD work in the agents, which parallelizes perfectly across regions —
but only if the regions agree on a global event order. The coordinator
provides that with classic conservative (Chandy–Misra–Bryant-style)
window synchronization. The radio model gives a hard lookahead ``L``:
every frame is delayed by at least ``propagation_delay + airtime(0)``
before arriving, so if all shards have executed up to time ``T``, any
frame emitted at or after ``T`` arrives at ``T + L`` or later. Windows
therefore advance as ``[T, min-next-event + L)``: each shard executes its
local events inside the window in parallel, emitted cross-shard frames
are routed between windows, and no shard can ever receive a frame for a
time it has already passed. The final window at the protocol deadline is
boundary-inclusive, matching ``LoopbackTransport.run(until)`` semantics.

The coordinator owns the deployment (it builds the same seeded network
the workers rebuild), launches one OS process per shard (``fork`` where
available — start-method selectable via ``REPRO_SHARD_START_METHOD``),
drives the window loop over the TCP star interconnect, and merges the
per-shard reports into one :class:`~repro.protocol.metrics.SetupMetrics`
plus one combined :class:`~repro.telemetry.registry.MetricsRegistry`
snapshot, with ``shard.*`` gauges describing the decomposition itself.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import socket
import time
from dataclasses import dataclass

from repro.protocol.config import ProtocolConfig
from repro.protocol.metrics import SetupMetrics
from repro.sim.network import Network
from repro.sim.radio import RadioConfig
from repro.sim.trace import Trace
from repro.runtime.shard.partition import ShardPlan, partition_network
from repro.runtime.shard.wire import (
    MSG_DONE,
    MSG_FINISH,
    MSG_HELLO,
    MSG_REPORT,
    MSG_RUN,
    MSG_STOP,
    OutFrame,
    pack_run,
    recv_message,
    send_message,
    unpack_done,
    unpack_hello,
    unpack_report,
)
from repro.runtime.shard import worker as worker_module
from repro.runtime.shard.worker import worker_main

__all__ = ["ShardedSetupResult", "run_sharded_setup"]

#: Seconds to wait for every worker to build its world and dial in.
_CONNECT_TIMEOUT_S = 120.0


@dataclass
class ShardedSetupResult:
    """Outcome of one sharded key setup."""

    metrics: SetupMetrics
    plan: ShardPlan
    trace: Trace
    windows: int
    cross_frames: int
    events_executed: int

    @property
    def registry_snapshot(self) -> dict:
        """The merged deployment-wide metrics snapshot."""
        return self.trace.telemetry.registry.snapshot()


def _lookahead(radio_config: RadioConfig) -> float:
    """The model's minimum broadcast latency: the window bound."""
    return radio_config.propagation_delay_s + radio_config.airtime(0)


def run_sharded_setup(
    n: int,
    density: float,
    seed: int = 0,
    shards: int = 4,
    config: ProtocolConfig | None = None,
    radio_config: RadioConfig | None = None,
) -> ShardedSetupResult:
    """Run the paper's key setup region-sharded over ``shards`` processes.

    Same seed contract as the single-process runtime: the deployment,
    provisioning draws and election timers are identical, so the cluster
    assignment matches :func:`repro.runtime.cluster.deploy_live` (the
    parity test pins this; docs/RUNTIME.md states the exact equivalence
    relation).

    Raises:
        ValueError: ``shards`` < 1 or more shards than sensors.
        RuntimeError: a worker died or violated the window protocol.
    """
    config = config or ProtocolConfig()
    network = Network.build(n, density, seed=seed, radio_config=radio_config)
    plan = partition_network(network, shards)
    lookahead = _lookahead(network.radio.config)
    until = config.setup_end_s

    # Destination shards per border sender (frames are routed once here,
    # not flooded): every shard holding a neighbor of the sender.
    routes: dict[int, tuple[int, ...]] = {}
    for nid, shard in plan.assignment.items():
        dests = sorted({plan.assignment[p] for p in network.adjacency(nid)} - {shard})
        if dests:
            routes[nid] = tuple(dests)

    ctx = _mp_context()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(_CONNECT_TIMEOUT_S)
        port = listener.getsockname()[1]
        procs = [
            ctx.Process(
                target=worker_main,
                args=(shard, port, n, density, seed, shards, config, radio_config),
                daemon=True,
            )
            for shard in range(shards)
        ]
        # Forked children inherit the built (network, plan) copy-on-write
        # instead of rebuilding from the seed; spawn workers re-import the
        # module, see None, and fall back to the deterministic rebuild.
        worker_module._FORK_PREBUILT = (
            (n, density, seed, shards, radio_config),
            network,
            plan,
        )
        try:
            for proc in procs:
                proc.start()
        finally:
            worker_module._FORK_PREBUILT = None
        conns: list[socket.socket | None] = [None] * shards
        accepted: list[socket.socket] = []
        try:
            for _ in range(shards):
                conn = _accept_worker(listener, procs)
                # Track the socket before anything that can raise: a
                # failed handshake must still close every accepted fd.
                accepted.append(conn)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                msg_type, payload = recv_message(conn)
                if msg_type != MSG_HELLO:
                    raise RuntimeError(f"expected HELLO, got message type {msg_type}")
                conns[unpack_hello(payload)] = conn
            ready = [c for c in conns if c is not None]
            if len(ready) != shards:
                raise RuntimeError("duplicate or missing shard HELLOs")
            result = _drive_windows(ready, plan, network, routes, lookahead, until)
            for conn in ready:
                send_message(conn, MSG_STOP)
        finally:
            for conn in accepted:
                conn.close()
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - cleanup path
                    proc.terminate()
    return result


def _accept_worker(
    listener: socket.socket, procs: list[multiprocessing.process.BaseProcess]
) -> socket.socket:
    """Accept one worker dial-in, failing fast if a worker process died.

    Without the liveness check a worker that crashes while building its
    world (bad import under spawn, OOM) would stall the coordinator for
    the whole connect timeout instead of raising immediately.
    """
    deadline = time.monotonic() + _CONNECT_TIMEOUT_S
    while True:
        listener.settimeout(1.0)
        try:
            conn, _addr = listener.accept()
            return conn
        except TimeoutError:
            for proc in procs:
                if proc.exitcode is not None and proc.exitcode != 0:
                    raise RuntimeError(
                        f"shard worker {proc.name} exited with code "
                        f"{proc.exitcode} before connecting"
                    ) from None
            if time.monotonic() > deadline:
                raise TimeoutError(
                    "timed out waiting for shard workers to connect"
                ) from None


def _mp_context() -> multiprocessing.context.BaseContext:
    """Pick the process start method (``fork`` is ~10x faster to launch).

    ``REPRO_SHARD_START_METHOD`` overrides; platforms without ``fork``
    fall back to the interpreter default (spawn), which works but eats
    into the speedup via interpreter + import startup per worker.
    """
    method = os.environ.get("REPRO_SHARD_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _drive_windows(
    conns: list[socket.socket],
    plan: ShardPlan,
    network: Network,
    routes: dict[int, tuple[int, ...]],
    lookahead: float,
    until: float,
) -> ShardedSetupResult:
    """The conservative window loop plus the final merge."""
    shards = len(conns)
    next_times = [0.0] * shards  # every shard has its start_setup timers queued
    inboxes: list[list[OutFrame]] = [[] for _ in range(shards)]
    windows = 0
    cross_frames = 0

    while True:
        # In-flight frames count as future events: arrival is at least
        # the emission instant plus the lookahead.
        pending_frames = min(
            (
                emit + lookahead
                for inbox in inboxes
                for (emit, _sender, _frame) in inbox
            ),
            default=math.inf,
        )
        global_next = min(min(next_times), pending_frames)
        if global_next > until:
            break
        window_end = global_next + lookahead
        if window_end >= until:
            limit, inclusive = until, True
        else:
            limit, inclusive = window_end, False
        # Idle shards (no local events due, no ingress) sit this window
        # out entirely — their reported next-event time is still valid,
        # and skipping the round trip avoids waking a process that has
        # nothing to do (most windows touch only a subset of regions).
        active = [
            shard
            for shard in range(shards)
            if inboxes[shard] or next_times[shard] <= limit
        ]
        for shard in active:
            send_message(conns[shard], MSG_RUN, pack_run(limit, inclusive, inboxes[shard]))
            inboxes[shard] = []
        for shard in active:
            msg_type, payload = recv_message(conns[shard])
            if msg_type != MSG_DONE:
                raise RuntimeError(f"expected DONE, got message type {msg_type}")
            next_time, _executed, out_frames = unpack_done(payload)
            next_times[shard] = next_time
            for frame in out_frames:
                cross_frames += 1
                for dest in routes.get(frame[1], ()):
                    inboxes[dest].append(frame)
        windows += 1

    reports = []
    for conn in conns:
        send_message(conn, MSG_FINISH)
        msg_type, payload = recv_message(conn)
        if msg_type != MSG_REPORT:
            raise RuntimeError(f"expected REPORT, got message type {msg_type}")
        reports.append(unpack_report(payload))

    return _merge(reports, plan, network, windows, cross_frames)


def _merge(
    reports: list[dict],
    plan: ShardPlan,
    network: Network,
    windows: int,
    cross_frames: int,
) -> ShardedSetupResult:
    """Fold per-shard reports into one deployment-wide result."""
    trace = Trace()
    registry = trace.telemetry.registry
    cids: dict[int, int | None] = {}
    keys: dict[int, int] = {}
    events_executed = 0
    for report in reports:
        registry.merge_snapshot(report["registry"])
        events_executed += int(report["events_executed"])
        for nid, cid in report["cids"].items():
            cids[int(nid)] = cid
        for nid, count in report["keys"].items():
            keys[int(nid)] = int(count)

    clusters: dict[int, list[int]] = {}
    for nid in sorted(cids):
        cid = cids[nid]
        if cid is not None:
            clusters.setdefault(int(cid), []).append(nid)
    metrics = SetupMetrics(
        n=len(cids),
        measured_density=network.deployment.mean_degree,
        clusters={cid: sorted(members) for cid, members in clusters.items()},
        keys_per_node=[keys[nid] for nid in sorted(keys)],
        hello_messages=registry.counter("tx.hello"),
        linkinfo_messages=registry.counter("tx.linkinfo"),
    )
    metrics.publish(trace.telemetry)
    registry.gauge("shard.count", plan.num_shards)
    registry.gauge("shard.cut_links", plan.cut_links)
    registry.gauge("shard.windows", windows)
    registry.gauge("shard.cross_frames", cross_frames)
    return ShardedSetupResult(
        metrics=metrics,
        plan=plan,
        trace=trace,
        windows=windows,
        cross_frames=cross_frames,
        events_executed=events_executed,
    )
