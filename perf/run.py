"""Run the repo benchmark and print every metric of BENCHMARK.json.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--spans-out FILE]

Each workload runs in its own subprocess (``perf/workloads.py``), one
after another, with one thread of BLAS/OpenMP: one process and one thread
at a time, and ``peak_rss_mb`` is that workload's own. Without
``--trace`` the result carries the end-to-end metrics; with it, the
per-layer metrics of a traced pass (see ``perf/layers.py``).

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``). The exit code
is 0 only when every workload ran and passed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-workload wall limit; one benchmark run must finish inside 180 s.
CHILD_TIMEOUT_S = 170


def environment() -> dict[str, str]:
    """What the numbers were measured on."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "commit": commit,
    }


def child_env() -> dict[str, str]:
    """The workload process's environment: the tree's ``src`` first, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(name: str, args: argparse.Namespace, spans_out: str | None) -> dict | None:
    """Measure one workload in a subprocess; None if it did not finish."""
    cmd = [
        sys.executable,
        str(ROOT / "perf" / "workloads.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perf: {name} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perf: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(result: dict, spec: dict, trace: bool) -> None:
    """Print one workload's metrics, by name, with units."""
    print(
        f"== {result['workload']}  seed={result['seed']}  units={result['units']}  "
        f"host speed {result['host_speed']:.3f} (corrected / wall time, perf/speed.py)"
    )
    print("  end-to-end (untraced):" if trace else "  end-to-end:")
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        print(f"    {metric['name']:<30} {_fmt(value):>14} {metric['unit']}")
    tail = result["latency_tail"]
    print(
        f"    ops {result['ops']}  delivered {result['ops_delivered']}  "
        f"undelivered {result['ops'] - result['ops_delivered']}  "
        f"latency p99 {_fmt(tail['latency.p99_ms'])} ms over {tail['latency.samples']} samples"
    )
    if trace:
        layers = result["per_layer"]
        print(f"  per layer (traced wall {_fmt(layers['trace.wall_s'])} s):")
        print(f"    {'layer':<24} {'self_s':>10} {'share':>8} {'calls':>10}")
        for key, self_s in result["self_s"].items():
            layer = key[: -len(".self_s")]
            calls = layers.get(f"{layer}.calls", "")
            print(
                f"    {layer:<24} {self_s:>10.4f} "
                f"{layers[layer + '.share']:>8.3f} {calls:>10}"
            )
        if "spans_written" in result:
            print(f"    spans: {result['spans_written']} written, {result['spans_dropped']} not kept")
        print("  per-layer metrics:")
        for metric in spec["per_layer"]:
            value = layers[metric["name"]]
            print(f"    {metric['name']:<30} {_fmt(value):>14} {metric['unit']}")
    if result["failures"]:
        for failure in result["failures"]:
            print(f"  CHECK FAILED: {failure}")
    else:
        print("  checks: ok")


def main(argv: list[str] | None = None) -> int:
    """Run the selected workloads; returns the process exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured span per workload; sizes the work, not a deadline")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--spans-out", help="JSONL file for the traced run's raw spans")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = args.workload or names
    env = environment()
    print(
        f"perf: nproc={env['nproc']} python={env['python']} commit={env['commit']} "
        "OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1"
    )
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in workloads:
        spans_out = None
        if args.spans_out:
            path = Path(args.spans_out).resolve()
            if len(workloads) > 1:
                path = path.with_name(f"{path.stem}-{name}{path.suffix}")
            spans_out = str(path)
        result = run_workload(name, args, spans_out)
        if result is None:
            return 1
        render(result, spec, bool(args.trace))
        values = result["per_layer" if args.trace else "end_to_end"]
        prefix = f"{name}/" if len(workloads) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        attempted += result["ops"]
        failed += result["ops_failed"]
        correct = correct and not result["failures"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
