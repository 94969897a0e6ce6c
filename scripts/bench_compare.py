#!/usr/bin/env python
"""Tolerance gate for committed benchmark JSONs.

Compares a freshly measured benchmark payload against a committed
baseline and fails (exit 1) when any shared rate regresses by more than
the tolerance: ``fresh >= baseline * (1 - tolerance)`` must hold for
every compared field. CI's perf-smoke job runs this with a generous
``--tolerance 0.5`` — shared runners are noisy, and the gate exists to
catch order-of-magnitude regressions (a kernel silently falling back to
the scalar path), not 10% jitter.

Usage::

    python scripts/bench_compare.py BASELINE.json FRESH.json --tolerance 0.5

Four payload kinds are understood: crypto payloads
(``benchmark: crypto_kernels``; rows keyed by (cipher, blocks), every
``*_per_s`` field compared), runtime payloads
(``benchmark: runtime_setup_throughput``; rows keyed by (transport, n),
``events_per_s`` compared), forwarding payloads
(``benchmark: forwarding_soak``; codec rows keyed by (cipher, batch),
soak rows by (n, loss), ``*_per_s`` fields compared), and lifecycle
payloads (``benchmark: churn``; rows keyed by (mobility, loss),
``*_per_s`` fields compared).

A row or rate field present in only one payload is a *mismatch*: it
means a bench was renamed, added or dropped without updating the
committed baseline, and silently skipping it would let a renamed key
sail through the gate unmeasured. Mismatches exit with the distinct
code 4 (regressions still dominate with exit 1) so CI can tell "got
slower" from "stopped comparing". Pass ``--allow-missing`` to downgrade
mismatches to notes when a sweep legitimately grows mid-PR.

Count columns are exact at a fixed seed, so they are compared for
equality, not against a tolerance: a runtime row's ``events_executed``,
``clusters`` and ``frames_sent`` whenever both payloads have the same
``seed`` and ``density``; a forwarding soak row's or a churn row's
counts (``COUNT_COLUMNS``) when, in addition, both payloads have the
same ``quick`` flag and the rows the same ``duration_s``. A count that
differs exits with the distinct code 5: the run did different work, so
a PR that claims to leave behaviour untouched is held to it. A
regression still dominates (exit 1); a count that differs dominates a
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

#: Exit code for "a metric key exists in only one payload" — distinct
#: from 1 (regression) and 2 (argparse usage error) so CI logs separate
#: "got slower" from "stopped comparing".
EXIT_KEY_MISMATCH = 4
#: Exit code for "an exact count column differs" — the run did other work.
EXIT_COUNT_DIFFERS = 5

#: The exact columns of each row kind (the first element of its key).
COUNT_COLUMNS = {
    "setup": ("events_executed", "clusters", "frames_sent"),
    "soak": ("sent", "delivered", "dedup_hits", "dedup_evictions", "retransmits"),
    "churn": (
        "sent",
        "delivered",
        "unroutable",
        "joins",
        "leaves",
        "revoked",
        "refresh_rounds",
        "mobility_steps",
        "links_added",
        "links_removed",
    ),
}


def _rows(payload: dict) -> dict[tuple, dict]:
    """Index a payload's comparable rows by their identity key."""
    kind = payload.get("benchmark", "")
    indexed: dict[tuple, dict] = {}
    if kind == "crypto_kernels":
        for row in payload.get("results", ()):
            indexed[("kernel", row["cipher"], row["blocks"])] = row
        for row in payload.get("frame_path", ()):
            indexed[("frame", row["cipher"], row["payload_bytes"])] = row
    elif kind == "runtime_setup_throughput":
        for row in payload.get("results", ()):
            indexed[("setup", row["transport"], row["n"])] = row
    elif kind == "forwarding_soak":
        for row in payload.get("codec", ()):
            indexed[("codec", row["cipher"], row["batch"])] = row
        for row in payload.get("soak", ()):
            indexed[("soak", row["n"], row["loss"])] = row
    elif kind == "churn":
        for row in payload.get("rows", ()):
            indexed[("churn", row["mobility"], row["loss"])] = row
    else:
        raise ValueError(f"unrecognized benchmark payload: {kind!r}")
    return indexed


def _rate_fields(row: dict) -> Iterator[str]:
    """The throughput fields of a row (higher is better)."""
    for field in row:
        if field.endswith("_per_s"):
            yield field


def compare(baseline: dict, fresh: dict, tolerance: float) -> tuple[list[str], list[str]]:
    """``(regressions, mismatches)``; both empty when the gate passes.

    Regressions are rates below the tolerance floor. Mismatches are rows
    or rate fields present in only one payload — a renamed or dropped
    metric key that would otherwise escape the gate unmeasured.
    """
    base_rows = _rows(baseline)
    fresh_rows = _rows(fresh)
    regressions: list[str] = []
    mismatches: list[str] = []
    for key, base_row in sorted(base_rows.items(), key=repr):
        fresh_row = fresh_rows.get(key)
        if fresh_row is None:
            mismatches.append(f"{key}: row exists in baseline only")
            continue
        for field in _rate_fields(base_row):
            base_val = base_row[field]
            fresh_val = fresh_row.get(field)
            if fresh_val is None:
                mismatches.append(f"{key}.{field}: metric exists in baseline only")
                continue
            floor = base_val * (1.0 - tolerance)
            if fresh_val < floor:
                regressions.append(
                    f"{key} {field}: {fresh_val:,.1f} < {floor:,.1f} "
                    f"(baseline {base_val:,.1f}, tolerance {tolerance:.0%})"
                )
        for field in _rate_fields(fresh_row):
            if field not in base_row:
                mismatches.append(f"{key}.{field}: metric exists in fresh run only")
    for key in sorted(set(fresh_rows) - set(base_rows), key=repr):
        mismatches.append(f"{key}: row exists in fresh run only")
    return regressions, mismatches


def count_differences(baseline: dict, fresh: dict) -> list[str]:
    """Count columns that differ between rows measured alike.

    Rows are compared only where their counts must agree: both payloads
    share ``seed`` and ``density``, and for soak and churn rows also
    ``quick`` and the row's ``duration_s``.
    """
    if any(baseline.get(k) != fresh.get(k) for k in ("seed", "density")):
        return []
    timed = baseline.get("benchmark") != "runtime_setup_throughput"
    if timed and baseline.get("quick") != fresh.get("quick"):
        return []
    fresh_rows = _rows(fresh)
    differences: list[str] = []
    for key, base_row in sorted(_rows(baseline).items(), key=repr):
        fresh_row = fresh_rows.get(key)
        if fresh_row is None or base_row.get("duration_s") != fresh_row.get("duration_s"):
            continue
        for field in COUNT_COLUMNS.get(key[0], ()):
            if field in base_row and base_row[field] != fresh_row.get(field):
                differences.append(
                    f"{key} {field}: {fresh_row.get(field)!r} != baseline {base_row[field]!r}"
                )
    return differences


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark JSON")
    parser.add_argument("fresh", help="freshly measured benchmark JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed fractional slowdown before failing (default: 0.5)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="report one-sided rows/metrics as notes instead of failing "
        "(for PRs that legitimately grow a sweep)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    with open(args.baseline, encoding="utf-8") as fp:
        baseline = json.load(fp)
    with open(args.fresh, encoding="utf-8") as fp:
        fresh = json.load(fp)
    regressions, mismatches = compare(baseline, fresh, args.tolerance)
    differences = count_differences(baseline, fresh)
    if mismatches:
        label = "note" if args.allow_missing else "MISMATCH"
        print(f"{label}: {len(mismatches)} metric key(s) present in only one payload:")
        for message in mismatches:
            print(f"  {message}")
        if not args.allow_missing:
            print(
                "A renamed/dropped bench key cannot be gated; regenerate the "
                "committed baseline or pass --allow-missing."
            )
    if differences:
        print(f"\nCOUNTS DIFFER: {len(differences)} exact column(s) changed:")
        for message in differences:
            print(f"  {message}")
    if regressions:
        print(f"\nFAIL: {len(regressions)} regression(s) beyond tolerance:")
        for message in regressions:
            print(f"  {message}")
        return 1
    if differences:
        return EXIT_COUNT_DIFFERS
    if mismatches and not args.allow_missing:
        return EXIT_KEY_MISMATCH
    print(f"\nOK: {len(_rows(baseline))} baseline rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
