"""Sustained-forwarding benchmark behind ``python -m repro bench forwarding``.

Two sections feed ``BENCH_forwarding.json``:

* **codec** — microbenchmark of the per-frame Step-2 path: a
  ``wrap_hop`` loop (cached hop key and per-key AEAD context,
  midstate-resumed MACs, and the zero-alloc frame assembler) over bursts
  of sensor-sized inner blobs, one seal per frame as every forwarding
  node runs it.
* **soak** — the end-to-end number: a live loopback deployment at n=100
  driven by :class:`repro.workloads.SoakWorkload` at a fixed offered
  load for a fixed protocol duration, once on a clean fabric and once
  under a 15%-drop :class:`~repro.runtime.faults.FaultPlan` with the
  hop-by-hop reliability layer on. Loopback runs protocol time as fast
  as the CPU allows, so wall-clock frame throughput measures the stack,
  not the schedule. Latency percentiles are protocol-time and therefore
  deterministic per seed.

docs/WORKLOADS.md documents the soak methodology (warmup, measurement
window, offered load); docs/BENCHMARKS.md documents every metric and the
CI gate (``scripts/bench_compare.py`` compares the ``*_per_s`` fields of
matching rows).
"""

from __future__ import annotations

import platform
import time

from repro.bench.crypto import FRAME_PAYLOAD, _best_rate
from repro.crypto.aead import AeadConfig
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import wrap_hop

#: Burst sizes for the codec micro rows (frames per timed burst); each
#: row is keyed by ``(cipher, batch)`` in the compare gate.
CODEC_BATCHES = (16, 64)

#: Loss rates swept by the soak section (the 15% row matches the chaos
#: acceptance scenario and runs with retransmits on at both rates).
LOSS_SWEEP = (0.0, 0.15)

_CLUSTER_KEY = bytes(range(16))


def _bench_codec(quick: bool) -> list[dict]:
    """Step-2 wrap rates over sensor-sized bursts."""
    reps = 3 if quick else 7
    aead = AeadConfig()
    rows = []
    # Sequence numbers advance per burst as a draining queue would, and
    # never restart between rows, as no real hop counter does.
    state = {"seq": 0}
    for batch in CODEC_BATCHES:
        # Distinct payloads per frame (realistic dedup-visible traffic).
        c1s = [bytes([i & 0xFF]) + FRAME_PAYLOAD for i in range(batch)]
        inner = max(1, (64 if quick else 512) // batch)

        def _burst() -> None:
            seq = state["seq"]
            for i, c1 in enumerate(c1s):
                wrap_hop(_CLUSTER_KEY, 5, 9, seq + i, 3, 12.5, c1, aead)
            state["seq"] = seq + batch

        rate = _best_rate(_burst, batch, reps, inner)
        rows.append(
            {
                "cipher": aead.cipher,
                "batch": batch,
                "payload_bytes": len(FRAME_PAYLOAD) + 1,
                "scalar_frames_per_s": round(rate, 1),
            }
        )
    return rows


def _run_soak_row(
    n: int,
    density: float,
    seed: int,
    loss: float,
    offered_load_fps: float,
    duration_s: float,
    warmup_s: float,
    settle_s: float,
) -> dict:
    """Deploy, soak, and measure one loss-rate row."""
    from repro.runtime.cluster import deploy_live
    from repro.runtime.faults import FaultPlan, LinkFaults
    from repro.workloads import SoakWorkload

    fault_plan = None
    if loss > 0:
        fault_plan = FaultPlan(seed=seed, defaults=LinkFaults(drop=loss))
    config = ProtocolConfig(hop_ack_enabled=True)
    deployed, _metrics = deploy_live(
        n=n,
        density=density,
        seed=seed,
        transport="loopback",
        config=config,
        fault_plan=fault_plan,
    )
    deployed.assign_gradient()
    workload = SoakWorkload(
        deployed,
        offered_load_fps=offered_load_fps,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
    )
    workload.start()
    counters = deployed.network.trace.counters
    frames_before = counters["net.frames_sent"]
    retx_before = counters["net.retx.sent"]
    start = time.perf_counter()
    deployed.run_for(duration_s + settle_s)
    wall_s = time.perf_counter() - start
    stats = workload.stats()
    frames = counters["net.frames_sent"] - frames_before
    retx = counters["net.retx.sent"] - retx_before
    return {
        "n": n,
        "loss": loss,
        "offered_load_fps": offered_load_fps,
        "duration_s": duration_s,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "delivery_ratio": round(stats.delivery_ratio, 4),
        "frames_per_s": round(frames / wall_s, 1),
        "delivered_per_s": round(stats.delivered / wall_s, 1),
        "p50_latency_ms": round(stats.latency_percentile_ms(50), 2),
        "p99_latency_ms": round(stats.latency_percentile_ms(99), 2),
        "p50_hop_latency_ms": round(stats.hop_latency_percentile_ms(50), 2),
        "p99_hop_latency_ms": round(stats.hop_latency_percentile_ms(99), 2),
        "dedup_hits": int(counters["forward.dedup_hit"]),
        "dedup_evictions": int(counters["forward.dedup_evict"]),
        "retransmits": retx,
        "retx_overhead": round(retx / max(1, stats.sent), 4),
        "wall_s": round(wall_s, 2),
    }


def bench_forwarding(
    quick: bool = False,
    n: int = 100,
    density: float = 10.0,
    seed: int = 0,
) -> dict:
    """Run the codec micro rows and the soak sweep; returns the payload.

    ``quick`` shortens the soak duration and cuts micro repetitions for
    CI smoke runs (the compare gate's tolerance absorbs the extra noise);
    row identities are unchanged, so a quick run gates cleanly against a
    full-length baseline.
    """
    duration_s = 8.0 if quick else 30.0
    warmup_s = 1.0 if quick else 3.0
    settle_s = 3.0 if quick else 8.0
    offered_load_fps = 150.0
    soak_rows = [
        _run_soak_row(
            n, density, seed, loss, offered_load_fps, duration_s, warmup_s, settle_s
        )
        for loss in LOSS_SWEEP
    ]
    return {
        "benchmark": "forwarding_soak",
        "python": platform.python_version(),
        "quick": quick,
        "n": n,
        "density": density,
        "seed": seed,
        "codec": _bench_codec(quick),
        "soak": soak_rows,
    }


def render_bench_forwarding(payload: dict) -> str:
    """Human-readable tables of a :func:`bench_forwarding` payload."""
    lines = [
        f"forwarding data plane — python {payload['python']}, "
        f"n={payload['n']}, seed={payload['seed']}",
        "",
        f"{'codec batch':<12} {'frames/s':>14}",
    ]
    for row in payload["codec"]:
        lines.append(f"{row['batch']:<12} {row['scalar_frames_per_s']:>14,.0f}")
    lines.append("")
    lines.append(
        f"{'soak loss':<10} {'frames/s':>10} {'deliv/s':>9} {'delivery':>9} "
        f"{'p50 hop ms':>11} {'p99 hop ms':>11} {'retx':>6}"
    )
    for row in payload["soak"]:
        lines.append(
            f"{row['loss']:<10.0%} {row['frames_per_s']:>10,.0f} "
            f"{row['delivered_per_s']:>9,.0f} {row['delivery_ratio']:>8.1%} "
            f"{row['p50_hop_latency_ms']:>11.2f} {row['p99_hop_latency_ms']:>11.2f} "
            f"{row['retransmits']:>6}"
        )
    return "\n".join(lines)
