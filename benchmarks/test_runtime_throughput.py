"""Runtime throughput: key-setup wall time across the runtime backends.

Thin pytest wrapper over :mod:`repro.bench.runtime` — the module behind
``python -m repro bench runtime``, which owns the row definitions and
writes the committed ``BENCH_runtime.json`` baseline (full matrix, paper
sizes included). This wrapper runs the quick matrix: every single-process
variant at laptop sizes, leaving the quick payload under
``benchmarks/results/`` for inspection. CI's perf-smoke job gates a
fresh ``repro bench runtime --quick`` payload against the committed
baseline via ``scripts/bench_compare.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.runtime import SIZES, VARIANTS, bench_runtime, run_setup_row

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_runtime.quick.json"

SEED = 0


@pytest.mark.parametrize("transport", VARIANTS)
@pytest.mark.parametrize("n", SIZES)
def test_setup_throughput(transport, n):
    result = run_setup_row(transport, n, seed=SEED)
    assert result["clusters"] > 0
    assert result["events_per_s"] > 0


def test_write_bench_json(results_dir):
    """Persist the full quick payload."""
    payload = bench_runtime(quick=True, seed=SEED)
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS_PATH}")
