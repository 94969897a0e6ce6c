#!/usr/bin/env python3
"""Tail the telemetry stream of a live loopback deployment.

Deploys 60 nodes on the in-process loopback transport, subscribes to the
deployment's event stream (so setup and refresh events print as they
happen), runs a reporting workload while a PeriodicSampler snapshots the
metrics registry into a JSONL file, then reads the file back and renders
the same run summary `python -m repro metrics summarize` would.

Run:  PYTHONPATH=src python examples/live_metrics.py
"""

import tempfile
from pathlib import Path

from repro.protocol.refresh import RefreshCoordinator
from repro.runtime import deploy_live
from repro.telemetry import (
    JsonlWriter,
    PeriodicSampler,
    read_records,
    render_summary,
    summarize_records,
)
from repro.workloads import PeriodicReporting

def main() -> None:
    # event_log_limit buffers setup-phase events so the writer (attached
    # after deploy) can replay them into the stream.
    deployed, metrics = deploy_live(
        n=60, density=10.0, seed=7, transport="loopback", event_log_limit=1024
    )
    trace = deployed.network.trace
    print(
        f"deployed: {metrics.n} nodes, {metrics.cluster_count} clusters, "
        f"{metrics.mean_keys_per_node:.2f} keys/node"
    )

    # Live tail: every event, as it is emitted.
    def tail(event):
        where = f"node {event.node}" if event.node is not None else "network"
        print(f"  [t={event.time:7.2f}s] {event.kind:<14} ({where}) {event.details}")

    unsubscribe = trace.events.subscribe(tail)

    out = Path(tempfile.gettempdir()) / "live_metrics.jsonl"
    print(f"\nstreaming telemetry to {out}:")
    with JsonlWriter(out) as writer:
        writer.subscribe_to(trace.events)  # replays the buffered setup events
        sampler = PeriodicSampler(deployed, trace.registry, writer, period_s=10.0)
        sampler.start()

        sources = sorted(deployed.agents)[::6][:10]
        workload = PeriodicReporting(deployed, sources, period_s=5.0, rounds=4)
        workload.start()
        deployed.run_for(workload.duration_s + 5.0)

        # A key-refresh round, so the live tail shows a mid-run event too.
        RefreshCoordinator(deployed).run_round(settle_s=5.0)

        sampler.stop()
        writer.write_summary(
            deployed.now(),
            trace.registry,
            transport="loopback",
            nodes=len(deployed.agents),
            events_dropped=trace.events.dropped,
        )
    unsubscribe()

    records = read_records(out)
    kinds = [r["type"] for r in records]
    print(f"\nwrote {len(records)} JSONL records "
          f"({kinds.count('event')} events, {kinds.count('sample')} samples, "
          f"{kinds.count('summary')} summary)")

    print("\n" + render_summary(summarize_records(records)))

if __name__ == "__main__":
    main()
