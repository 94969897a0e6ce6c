#!/usr/bin/env python3
"""Paired A/B timing of one benchmark workload: a parent revision vs this tree.

    python3 scripts/ab.py --workload soak-lossy [--parent HEAD] [--pairs 10]
                          [--seconds 12] [--seed 0]

The parent revision is checked out into a temporary ``git worktree``
(removed on exit); the change is the working tree this script lives in,
uncommitted edits included. Each pair runs ``perf/run.py --workload W``
once in each tree, every run in a fresh process, one after the other.
The side that runs first alternates from pair to pair (the parent first
in even pairs), so a drift in host speed over the session does not
favour one side.

For every end-to-end metric of ``BENCHMARK.json`` it prints both
medians, the parent's interquartile range, the number of pairs the
change won (ties count for neither side) and a two-sided sign-test
p-value over the untied pairs. A run whose correctness checks fail is
reported, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_order(pair: int) -> tuple[str, str]:
    """Which side runs first in pair ``pair`` (0-based): the parent in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value for ``wins`` against ``losses``.

    Under the null hypothesis each untied pair is a fair coin; the
    p-value is the probability of a split at least this uneven, either
    way. No untied pair gives 1.0.
    """
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def measure(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perf/run.py`` run of ``workload`` in ``tree``; its final JSON line."""
    proc = subprocess.run(
        [
            sys.executable, str(tree / "perf" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        ],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree}: perf/run.py exited {proc.returncode} with no result")
    return json.loads(lines[-1])


def summarize(spec: dict, runs: dict[str, list[dict]]) -> list[dict]:
    """Per end-to-end metric: medians, the parent's IQR, change wins, sign-test p."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": iqr(parent),
            "change_wins": wins,
            "pairs": len(parent),
            "sign_p": sign_test_p(wins, losses),
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    """Run the pairs and print the table; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(parent_tree), args.parent],
            cwd=ROOT, check=True,
        )
        try:
            trees = {"parent": parent_tree, "change": ROOT}
            for pair in range(args.pairs):
                for side in run_order(pair):
                    runs[side].append(
                        measure(trees[side], args.workload, args.seed, args.seconds)
                    )
                print(f"ab: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(parent_tree)],
                cwd=ROOT, check=False,
            )

    print(f"ab: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs} parent={args.parent}")
    print(f"  {'metric':<28} {'parent':>12} {'change':>12} {'parent IQR':>11} "
          f"{'wins':>6} {'sign p':>8}")
    for row in summarize(spec, runs):
        print(f"  {row['metric']:<28} {row['parent_median']:>12.6g} "
              f"{row['change_median']:>12.6g} {row['parent_iqr']:>11.4g} "
              f"{row['change_wins']:>3}/{row['pairs']:<2} {row['sign_p']:>8.3g}")
    failed = {side: sum(1 for r in runs[side] if not r["correct"]) for side in SIDES}
    if any(failed.values()):
        print(f"  runs failing their checks: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
