"""Check that repeated sets of benchmark runs agree within the benchmark's bounds.

    python3 perf/agree.py [--sets 2] [--seeds 10] [--workload NAME ...]

A set runs every workload once per seed (seeds 0 .. N-1), one run at a
time; successive sets alternate the workload order. For each workload
and end-to-end metric the checker prints every set's median and
quartiles, and the spread: the distance between the quartiles as a share
of the median. It fails (exit 1) when a run fails, when a spread exceeds
the metric's bound (``setup_s`` excepted), or when two sets' medians
differ by more than the bound. A wall-time metric that does not hold its
bound calls for more measured work per run, not a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    """One ``perf/run.py`` run; its result object, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    """Run the sets and judge them; returns the process exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.sets < 1 or args.seeds < 2:
        parser.error("need --sets >= 1 and --seeds >= 2")
    workloads = args.workload or names
    # values[workload][metric][set] -> one value per seed
    values = {w: {m["name"]: [[] for _ in range(args.sets)] for m in spec["end_to_end"]}
              for w in workloads}
    problems: list[str] = []
    for k in range(args.sets):
        order = workloads if k % 2 == 0 else workloads[::-1]
        for workload in order:
            for seed in range(args.seeds):
                start = time.perf_counter()
                result = run_once(workload, seed, args.seconds)
                wall = time.perf_counter() - start
                print(f"set {k} {workload} seed {seed}: {wall:.1f} s"
                      + ("" if result else "  FAILED"), flush=True)
                if result is None:
                    problems.append(f"{workload} seed {seed} (set {k}) failed")
                    continue
                for name, metric in result["metrics"].items():
                    values[workload][name][k].append(metric["value"])
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        for workload in workloads:
            medians = []
            for k, runs in enumerate(values[workload][name]):
                if len(runs) < 2:
                    continue
                median, q1, q3, spread = summarize(runs)
                medians.append(median)
                flag = ""
                if spread > bound and name != "setup_s":
                    flag = "  SPREAD OVER BOUND"
                    problems.append(f"{workload} {name}: spread {spread:.1%} > {bound:.0%}")
                elif spread > bound / 3:
                    flag = "  (spread over a third of the bound)"
                print(f"  {workload:<16} set {k}: median {median:.6g}  "
                      f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.1%}{flag}")
            for k, median in enumerate(medians[1:], start=1):
                gap = abs(median - medians[0]) / medians[0] if medians[0] else 0.0
                if gap > bound:
                    problems.append(f"{workload} {name}: set {k} median off set 0 by {gap:.1%}")
    for problem in problems:
        print(f"DISAGREE: {problem}")
    print("agree: ok" if not problems else f"agree: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
