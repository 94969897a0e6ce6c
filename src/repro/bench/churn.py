"""Lifecycle-churn benchmark behind ``python -m repro bench churn``.

Feeds ``BENCH_churn.json``: one row per (mobility model, loss rate)
cell, each row a full :func:`repro.runtime.lifecycle.run_churn`
scenario — continuous motion with incremental topology maintenance,
sustained join/leave/revoke/refresh churn, the reliability layer on,
and the gateway store riding the delivery stream. The benchmark prices
the lifecycle runtime itself: how fast the stack pushes protocol frames
and mobility steps (wall clock) while the field is moving and churning,
and what convergence looked like while it did.

Loopback runs protocol time as fast as the CPU allows, so the
``*_per_s`` fields measure the stack, not the schedule; delivery and
convergence columns are protocol-time and therefore deterministic per
seed. docs/BENCHMARKS.md documents every metric and the CI gate
(``scripts/bench_compare.py`` compares the ``*_per_s`` fields of
matching rows).
"""

from __future__ import annotations

import platform
import time

from repro.runtime.lifecycle import ChurnScenario, run_churn
from repro.sim.mobility import MOBILITY_MODELS

#: Loss rates swept per mobility model (the 10% cell matches the
#: churn-smoke acceptance scenario).
LOSS_SWEEP = (0.0, 0.10)


def _run_row(
    mobility: str, loss: float, n: int, density: float, seed: int, duration_s: float
) -> dict:
    """Run one (model, loss) scenario and measure it against wall clock."""
    scenario = ChurnScenario(
        seed=seed,
        n=n,
        density=density,
        mobility=mobility,
        drop=loss,
        duplicate=0.03 if loss else 0.0,
        reorder=0.03 if loss else 0.0,
        duration_s=duration_s,
        settle_s=10.0,
    )
    start = time.perf_counter()
    result = run_churn(scenario)
    wall_s = time.perf_counter() - start
    frames = result.counter("net.frames_sent")
    return {
        "mobility": mobility,
        "loss": loss,
        "n": n,
        "duration_s": duration_s,
        "sent": result.sent,
        "delivered": result.delivered,
        "delivery_ratio": round(result.delivery_ratio, 4),
        "joins": result.joins_completed,
        "leaves": result.leaves,
        "revoked": result.nodes_revoked,
        "refresh_rounds": result.refresh_rounds,
        "mobility_steps": result.mobility_steps,
        "links_added": result.links_added,
        "links_removed": result.links_removed,
        "max_reconverge_s": round(result.max_reconverge_s, 3),
        "frames_per_s": round(frames / wall_s, 1),
        "steps_per_s": round(result.mobility_steps / wall_s, 1),
        "wall_s": round(wall_s, 2),
    }


def bench_churn(
    quick: bool = False,
    n: int = 40,
    density: float = 10.0,
    seed: int = 0,
) -> dict:
    """Run the (model, loss) sweep; returns the payload.

    ``quick`` shortens the scenario horizon for CI smoke runs (the
    compare gate's tolerance absorbs the extra noise); row identities
    are unchanged, so a quick run gates cleanly against a full-length
    baseline.
    """
    duration_s = 40.0 if quick else 120.0
    rows = [
        _run_row(mobility, loss, n, density, seed, duration_s)
        for mobility in MOBILITY_MODELS
        for loss in LOSS_SWEEP
    ]
    return {
        "benchmark": "churn",
        "python": platform.python_version(),
        "quick": quick,
        "n": n,
        "density": density,
        "seed": seed,
        "rows": rows,
    }


def render_bench_churn(payload: dict) -> str:
    """Human-readable table of a :func:`bench_churn` payload."""
    lines = [
        f"lifecycle churn — python {payload['python']}, "
        f"n={payload['n']}, seed={payload['seed']}",
        "",
        f"{'model':<10} {'loss':<6} {'frames/s':>10} {'steps/s':>9} "
        f"{'delivery':>9} {'reconv s':>9} {'links +/-':>12} {'churn':>12}",
    ]
    for row in payload["rows"]:
        churn = f"+{row['joins']}/-{row['leaves']}/-{row['revoked']}r"
        lines.append(
            f"{row['mobility']:<10} {row['loss']:<6.0%} "
            f"{row['frames_per_s']:>10,.0f} {row['steps_per_s']:>9,.0f} "
            f"{row['delivery_ratio']:>8.1%} {row['max_reconverge_s']:>9.1f} "
            f"{'+' + str(row['links_added']) + '/-' + str(row['links_removed']):>12} "
            f"{churn:>12}"
        )
    return "\n".join(lines)
