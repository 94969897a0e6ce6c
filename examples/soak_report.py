#!/usr/bin/env python3
"""Render a committed forwarding-soak payload as a terminal report.

Reads ``BENCH_forwarding.json`` (the sustained data-plane benchmark
written by ``python -m repro bench forwarding`` — methodology in
docs/WORKLOADS.md, field meanings in docs/BENCHMARKS.md) and renders the
latency-percentile picture as ASCII bar charts: end-to-end and per-hop
percentiles side by side for each loss rate, plus the delivery and
retransmission story and the frame-codec rates.

Run:  PYTHONPATH=src python examples/soak_report.py [path/to/payload.json]
"""

import json
import sys
from pathlib import Path

from repro.viz import bar_chart


def render_soak_row(row: dict) -> str:
    """One loss-rate section: delivery summary + latency bars."""
    header = (
        f"loss {row['loss']:.0%} — offered {row['offered_load_fps']:.0f} "
        f"readings/s for {row['duration_s']:.0f}s over n={row['n']} nodes"
    )
    summary = (
        f"  delivered {row['delivered']}/{row['sent']} "
        f"({row['delivery_ratio']:.1%}), {row['frames_per_s']:,.0f} frames/s, "
        f"{row['retransmits']} retransmits "
        f"({row['retx_overhead']:.2f} per reading)"
    )
    bars = bar_chart(
        [
            ("p50 end-to-end", row["p50_latency_ms"]),
            ("p99 end-to-end", row["p99_latency_ms"]),
            ("p50 per-hop", row["p50_hop_latency_ms"]),
            ("p99 per-hop", row["p99_hop_latency_ms"]),
        ],
        unit="ms",
    )
    return "\n".join([header, summary, "", bars])


def render_codec(rows: list) -> str:
    """The Step-2 frame codec rate per burst size."""
    lines = ["frame codec (wrap_hop loop):"]
    for row in rows:
        lines.append(
            f"  batch {row['batch']:>3}: {row['scalar_frames_per_s']:>9,.0f} frames/s"
        )
    return "\n".join(lines)


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("BENCH_forwarding.json")
    if not path.exists():
        sys.exit(
            f"{path}: not found — run "
            "`PYTHONPATH=src python -m repro bench forwarding` first"
        )
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("benchmark") != "forwarding_soak":
        sys.exit(f"{path}: not a forwarding_soak payload")

    print(
        f"forwarding soak report — python {payload['python']}, "
        f"seed {payload['seed']}" + (" (quick run)" if payload["quick"] else "")
    )
    print()
    for row in payload["soak"]:
        print(render_soak_row(row))
        print()
    print(render_codec(payload["codec"]))


if __name__ == "__main__":
    main()
