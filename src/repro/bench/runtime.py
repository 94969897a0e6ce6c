"""Setup-throughput benchmark behind ``python -m repro bench runtime``.

Times a full key setup (deploy + cluster election + key distribution to
quiescence) on the in-process fabric and writes the machine-readable
trajectory to ``BENCH_runtime.json``:

* **loopback / loopback+faults** — the single-process fabric at laptop
  sizes (the loopback rows are the tuned per-event hot path; the faulted
  row prices the fault decorator plus the reliability layer);
* **loopback at n=2500 and n=3600** — the paper's deployment scale.

Each row times :data:`TIMED_RUNS` identical setups and reports the
median wall time and its interquartile range; the count columns must be
equal across those runs. Every payload records ``cpu_count`` so a reader
can tell which machine the wall times come from.

``quick`` keeps row identities for the sizes it runs but skips the
paper-scale sizes, so CI gates the quick run against the committed
full baseline with ``--allow-missing`` (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time

from repro.protocol.config import ProtocolConfig

#: Single-process sizes every run measures (laptop scale).
SIZES = (100, 400)

#: Paper-scale sizes the full run adds (loopback rows only).
PAPER_SIZES = (2500, 3600)

#: Single-process backend variants measured at each laptop size.
VARIANTS = ("loopback", "loopback+faults")

DENSITY = 10.0

#: Identical setups timed per row: one timing moves by up to 30% between
#: runs on a shared host, the median of five much less.
TIMED_RUNS = 5


def _events_executed(deployed) -> int:
    """Events the backend executed, unwrapping the fault decorator."""
    transport = deployed.network.transport
    return getattr(transport, "inner", transport).events_executed


def run_setup_row(variant: str, n: int, seed: int = 0) -> dict:
    """Time :data:`TIMED_RUNS` identical key setups; returns the payload row.

    ``setup_wall_s`` is their median and ``setup_wall_iqr_s`` its
    interquartile range; ``events_per_s`` divides by the median.

    Raises:
        RuntimeError: a count column differed between the runs.
    """
    from repro.runtime import deploy_live
    from repro.runtime.faults import FaultPlan, LinkFaults

    kwargs: dict = {}
    transport = variant
    if variant == "loopback+faults":
        transport = "loopback"
        kwargs["fault_plan"] = FaultPlan(
            seed=seed,
            defaults=LinkFaults(drop=0.15, duplicate=0.05, reorder=0.05),
        )
        kwargs["config"] = ProtocolConfig(
            hop_ack_enabled=True, setup_reannounce_count=2, settle_margin_s=3.0
        )
    walls: list[float] = []
    counts: set[tuple[int, int, int]] = set()
    for _ in range(TIMED_RUNS):
        # The previous run's deployment is garbage with cycles: collect
        # it before the clock starts, not inside the next timed setup.
        gc.collect()
        start = time.perf_counter()
        deployed, metrics = deploy_live(n, DENSITY, seed=seed, transport=transport, **kwargs)
        walls.append(time.perf_counter() - start)
        counts.add(
            (
                _events_executed(deployed),
                metrics.cluster_count,
                deployed.network.trace["net.frames_sent"],
            )
        )
        del deployed, metrics
    if len(counts) != 1:
        raise RuntimeError(f"{variant} n={n}: counts differ between identical setups: {counts}")
    ((events, clusters, frames),) = counts
    wall_s = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return {
        "n": n,
        "transport": variant,
        "setup_wall_s": round(wall_s, 4),
        "setup_wall_iqr_s": round(q3 - q1, 4),
        "events_executed": events,
        "events_per_s": round(events / wall_s, 1),
        "clusters": clusters,
        "frames_sent": frames,
    }


def bench_runtime(quick: bool = False, seed: int = 0) -> dict:
    """Run the setup-throughput matrix; returns the payload.

    The full matrix is the laptop sizes across all single-process
    variants, plus loopback rows at the paper sizes; ``quick`` skips
    the paper sizes.
    """
    rows = [run_setup_row(variant, n, seed=seed) for variant in VARIANTS for n in SIZES]
    if not quick:
        rows.extend(run_setup_row("loopback", n, seed=seed) for n in PAPER_SIZES)
    rows.sort(key=lambda row: (row["transport"], row["n"]))
    return {
        "benchmark": "runtime_setup_throughput",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "density": DENSITY,
        "seed": seed,
        "results": rows,
    }


def render_bench_runtime(payload: dict) -> str:
    """Human-readable table of a :func:`bench_runtime` payload."""
    lines = [
        f"runtime key setup — python {payload['python']}, "
        f"{payload['cpu_count']} cpu(s), density {payload['density']}, "
        f"seed {payload['seed']}",
        "",
        f"{'n':>6} {'transport':<16} {'wall s':>8} {'IQR s':>7} {'events':>8} "
        f"{'events/s':>10} {'clusters':>9}",
    ]
    for row in payload["results"]:
        lines.append(
            f"{row['n']:>6} {row['transport']:<16} {row['setup_wall_s']:>8.3f} "
            f"{row['setup_wall_iqr_s']:>7.3f} "
            f"{row['events_executed']:>8} {row['events_per_s']:>10,.0f} "
            f"{row['clusters']:>9}"
        )
    return "\n".join(lines)
