"""The CI perf gate: scripts/bench_compare.py tolerance semantics."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).parent.parent / "scripts" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _crypto_payload(rate: float) -> dict:
    return {
        "benchmark": "crypto_kernels",
        "results": [
            {
                "cipher": "speck64/128",
                "blocks": 64,
                "scalar_blocks_per_s": 70_000.0,
                "vector_blocks_per_s": rate,
                "speedup": rate / 70_000.0,
            }
        ],
        "frame_path": [],
    }


def _runtime_payload(rate: float) -> dict:
    return {
        "benchmark": "runtime_setup_throughput",
        "results": [
            {"n": 400, "transport": "loopback", "events_per_s": rate},
        ],
    }


def _forwarding_payload(frames_rate: float, codec_rate: float = 80_000.0) -> dict:
    return {
        "benchmark": "forwarding_soak",
        "codec": [
            {
                "cipher": "speck64/128",
                "batch": 64,
                "scalar_frames_per_s": codec_rate,
            }
        ],
        "soak": [
            {
                "n": 100,
                "loss": 0.15,
                "frames_per_s": frames_rate,
                "delivered_per_s": frames_rate / 20,
                "delivery_ratio": 0.96,
                "p99_latency_ms": 400.0,
            }
        ],
    }


def _churn_payload(frames_rate: float, steps_rate: float = 90.0) -> dict:
    return {
        "benchmark": "churn",
        "rows": [
            {
                "mobility": "waypoint",
                "loss": 0.10,
                "frames_per_s": frames_rate,
                "steps_per_s": steps_rate,
                "delivery_ratio": 0.92,
                "max_reconverge_s": 2.0,
            }
        ],
    }


def test_identical_payloads_pass():
    assert bench_compare.compare(
        _crypto_payload(2e6), _crypto_payload(2e6), 0.5
    ) == ([], [])


def test_within_tolerance_passes():
    base, fresh = _crypto_payload(2e6), _crypto_payload(1.1e6)  # -45%
    assert bench_compare.compare(base, fresh, 0.5) == ([], [])


def test_regression_beyond_tolerance_fails():
    base, fresh = _crypto_payload(2e6), _crypto_payload(0.9e6)  # -55%
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    assert len(regressions) == 1
    assert "vector_blocks_per_s" in regressions[0]
    assert mismatches == []


def test_runtime_payloads_understood():
    base, fresh = _runtime_payload(30_000.0), _runtime_payload(10_000.0)
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    assert len(regressions) == 1
    assert "events_per_s" in regressions[0]
    assert mismatches == []


def test_forwarding_payloads_understood():
    base, fresh = _forwarding_payload(3_000.0), _forwarding_payload(2_000.0)  # -33%
    assert bench_compare.compare(base, fresh, 0.5) == ([], [])
    base, fresh = _forwarding_payload(3_000.0), _forwarding_payload(1_000.0)  # -67%
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    # frames_per_s and delivered_per_s both cross the floor; the
    # non-rate fields (delivery_ratio, latency) are not compared.
    assert len(regressions) == 2
    assert any("frames_per_s" in r for r in regressions)
    assert mismatches == []


def test_churn_payloads_understood():
    base, fresh = _churn_payload(3_000.0), _churn_payload(2_000.0)  # -33%
    assert bench_compare.compare(base, fresh, 0.5) == ([], [])
    base, fresh = _churn_payload(3_000.0), _churn_payload(1_000.0)  # -67%
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    # frames_per_s crosses the floor; the behavioral columns
    # (delivery_ratio, max_reconverge_s) are not rate-gated.
    assert len(regressions) == 1
    assert "frames_per_s" in regressions[0]
    assert mismatches == []


def test_churn_steps_rate_gated_independently():
    base = _churn_payload(3_000.0, steps_rate=90.0)
    fresh = _churn_payload(3_000.0, steps_rate=30.0)  # -67%
    regressions, _ = bench_compare.compare(base, fresh, 0.5)
    assert len(regressions) == 1
    assert "steps_per_s" in regressions[0]


def test_forwarding_codec_rows_gated_independently():
    base = _forwarding_payload(3_000.0, codec_rate=80_000.0)
    fresh = _forwarding_payload(3_000.0, codec_rate=30_000.0)  # -62%
    regressions, _ = bench_compare.compare(base, fresh, 0.5)
    assert len(regressions) == 1
    assert "scalar_frames_per_s" in regressions[0]


def test_forwarding_dropped_soak_row_is_a_mismatch():
    base = _forwarding_payload(3_000.0)
    fresh = _forwarding_payload(3_000.0)
    fresh["soak"] = []
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    assert regressions == []
    assert len(mismatches) == 1
    assert "baseline only" in mismatches[0]


def test_row_missing_from_fresh_is_a_mismatch():
    base = _crypto_payload(2e6)
    fresh = _crypto_payload(2e6)
    fresh["results"] = []
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    assert regressions == []
    assert len(mismatches) == 1
    assert "baseline only" in mismatches[0]


def test_renamed_metric_key_is_a_mismatch_on_both_sides():
    base = _crypto_payload(2e6)
    fresh = _crypto_payload(2e6)
    row = fresh["results"][0]
    row["simd_blocks_per_s"] = row.pop("vector_blocks_per_s")
    regressions, mismatches = bench_compare.compare(base, fresh, 0.5)
    assert regressions == []
    assert any("vector_blocks_per_s" in m and "baseline only" in m for m in mismatches)
    assert any("simd_blocks_per_s" in m and "fresh run only" in m for m in mismatches)


def test_unknown_payload_kind_rejected():
    with pytest.raises(ValueError, match="unrecognized benchmark payload"):
        bench_compare.compare({"benchmark": "mystery"}, {"benchmark": "mystery"}, 0.5)


def test_main_exit_codes(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_crypto_payload(2e6)))
    fresh.write_text(json.dumps(_crypto_payload(0.5e6)))
    assert bench_compare.main([str(base), str(base), "--tolerance", "0.5"]) == 0
    assert bench_compare.main([str(base), str(fresh), "--tolerance", "0.5"]) == 1


def test_main_mismatch_exit_code_and_message(tmp_path, capsys):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    payload = _crypto_payload(2e6)
    base.write_text(json.dumps(payload))
    renamed = _crypto_payload(2e6)
    row = renamed["results"][0]
    row["simd_blocks_per_s"] = row.pop("vector_blocks_per_s")
    fresh.write_text(json.dumps(renamed))
    code = bench_compare.main([str(base), str(fresh), "--tolerance", "0.5"])
    assert code == bench_compare.EXIT_KEY_MISMATCH == 4
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert "only one payload" in out
    # --allow-missing downgrades the mismatch to a note.
    code = bench_compare.main(
        [str(base), str(fresh), "--tolerance", "0.5", "--allow-missing"]
    )
    assert code == 0


def test_regression_dominates_mismatch(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_crypto_payload(2e6)))
    slow = _crypto_payload(0.5e6)
    slow["results"][0]["extra_per_s"] = 1.0
    fresh.write_text(json.dumps(slow))
    assert bench_compare.main([str(base), str(fresh), "--tolerance", "0.5"]) == 1


def test_committed_baselines_are_loadable():
    """The committed BENCH jsons must stay parseable by the gate."""
    repo = Path(__file__).parent.parent
    for name in (
        "BENCH_crypto.json",
        "BENCH_runtime.json",
        "BENCH_forwarding.json",
        "BENCH_churn.json",
    ):
        payload = json.loads((repo / name).read_text())
        rows = bench_compare._rows(payload)
        assert rows, f"{name} produced no comparable rows"
        assert bench_compare.compare(payload, payload, 0.0) == ([], [])
