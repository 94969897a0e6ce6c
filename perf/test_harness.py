"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
#: Short runs: the smallest unit count each workload allows.
SHORT = ("--seconds", "1")
#: End-to-end metrics that are exact for a given seed (the rest are wall time or memory).
EXACT = [
    m["name"]
    for m in SPEC["end_to_end"]
    if m["name"] not in ("setup_s", "delivered_per_s", "peak_rss_mb")
]


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    script = Path(cwd) / "perf" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def printed(out: str) -> dict[str, tuple[str, str]]:
    """``name -> (value, unit)`` of every metric line of the report."""
    return {
        m.group(1): (m.group(2), m.group(3))
        for m in re.finditer(r"^ {4}(\S+) +(\S+) (\S+)$", out, re.MULTILINE)
    }


@pytest.fixture(scope="module")
def traced() -> dict[str, tuple[int, str]]:
    return {name: run("--workload", name, "--trace", *SHORT) for name in NAMES}


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_emits_every_metric_with_its_unit(traced, workload):
    code, out = traced[workload]
    result = last_json(out)
    assert code == 0 and result["correct"], out
    assert result["attempted"] >= 1 and result["failed"] == 0
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    lines = printed(out)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert lines[metric["name"]][1] == metric["unit"], metric["name"]


@pytest.mark.parametrize("workload", NAMES)
def test_layer_shares_cover_the_traced_wall(traced, workload):
    metrics = last_json(traced[workload][1])["metrics"]
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    limit = 0.35 if workload == "churn-waypoint" else 0.30
    assert 0.0 <= metrics["unattributed.share"]["value"] <= limit
    assert metrics["trace.overhead"]["value"] > 0


def test_setup_paper_seed_0_matches_the_paper_scale_reference(traced):
    # 673 HELLOs (one per cluster) plus one LINKINFO per sensor.
    value = float(printed(traced["setup-paper"][1])["setup_tx_per_node"][0])
    assert value == pytest.approx((673 + 3600) / 3600, rel=1e-5)


def test_untraced_run_reports_the_end_to_end_metrics():
    code, out = run("--workload", "soak-clean", *SHORT)
    result = last_json(out)
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_repeats_exact_metrics_and_another_seed_changes_topology():
    first, again, other = (
        last_json(run("--workload", "soak-clean", "--seed", seed, *SHORT)[1])["metrics"]
        for seed in ("0", "0", "1")
    )
    assert {m: first[m] for m in EXACT} == {m: again[m] for m in EXACT}
    assert first["tx_per_delivered"] != other["tx_per_delivered"]


def test_tracer_does_not_perturb_the_protocol():
    soak = workloads.WORKLOADS["soak-clean"]
    plain = soak.unit(0, 0)
    with layers.LayerTracer() as tracer:
        traced = soak.unit(0, 0)
    assert traced.exact() == plain.exact()
    assert sum(tracer.calls) > 0 and not tracer.missing


def test_tracer_restores_every_wrapped_attribute():
    found, missing = layers.entry_points()
    assert not missing
    before = {(owner, attr): (target, vars(target)[attr]) for _, owner, target, attr in found}
    with layers.LayerTracer():
        for (owner, attr), (target, raw) in before.items():
            assert vars(target)[attr] is not raw, f"{owner}.{attr} not wrapped"
    for (owner, attr), (target, raw) in before.items():
        assert vars(target)[attr] is raw, f"{owner}.{attr} not restored"


def test_speed_probe_corrects_down_and_puts_the_signal_back():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter_ns()
        while time.perf_counter_ns() - start < 50_000_000:
            pass
        span = (start, time.perf_counter_ns())
    assert probe.ticks > 10
    assert 0 < probe.seconds(span) <= (span[1] - span[0]) / 1e9
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_a_source_tree_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run("--workload", "soak-clean", *SHORT, cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
