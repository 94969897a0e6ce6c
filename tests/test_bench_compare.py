"""The CI perf gate: scripts/bench_compare.py tolerance semantics."""

from __future__ import annotations

import copy
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


# -- exact count columns --------------------------------------------------------


def _with_counts(payload: dict, rows: str, seed: int = 0, **counts) -> dict:
    """``payload`` at ``seed`` (full run, 30 s rows) with ``counts`` in every row."""
    payload.update(seed=seed, density=10.0, quick=False)
    for row in payload[rows]:
        row.update(duration_s=30.0, **counts)
    return payload


def test_equal_counts_pass():
    base = _with_counts(_runtime_payload(1.0), "results", events_executed=5280, clusters=75)
    assert bench_compare.count_differences(base, copy.deepcopy(base)) == []


def test_runtime_count_that_differs_is_reported():
    base = _with_counts(_runtime_payload(1.0), "results", events_executed=5280, frames_sent=475)
    fresh = _with_counts(_runtime_payload(1.0), "results", events_executed=5281, frames_sent=475)
    (difference,) = bench_compare.count_differences(base, fresh)
    assert "events_executed" in difference and "5281" in difference
    # The rates still pass: a count is not a rate.
    assert bench_compare.compare(base, fresh, 0.5) == ([], [])


def test_runtime_counts_are_compared_only_at_the_same_seed_and_density():
    base = _with_counts(_runtime_payload(1.0), "results", clusters=75)
    other_seed = _with_counts(_runtime_payload(1.0), "results", seed=1, clusters=80)
    assert bench_compare.count_differences(base, other_seed) == []
    other_density = _with_counts(_runtime_payload(1.0), "results", clusters=80)
    other_density["density"] = 12.0
    assert bench_compare.count_differences(base, other_density) == []
    # A quick runtime run has the same rows, so its counts are checked.
    quick = _with_counts(_runtime_payload(1.0), "results", clusters=80)
    quick["quick"] = True
    assert len(bench_compare.count_differences(base, quick)) == 1


@pytest.mark.parametrize(
    "make, rows, counts",
    [
        (_forwarding_payload, "soak", {"delivered": 4050, "retransmits": 137}),
        (_churn_payload, "rows", {"delivered": 771, "unroutable": 61}),
    ],
)
def test_soak_and_churn_counts_need_the_same_quick_flag_and_duration(make, rows, counts):
    base = _with_counts(make(1_000.0), rows, **counts)
    changed = {name: value + 1 for name, value in counts.items()}
    fresh = _with_counts(make(1_000.0), rows, **changed)
    assert len(bench_compare.count_differences(base, fresh)) == len(counts)
    quick = _with_counts(make(1_000.0), rows, **changed)
    quick["quick"] = True
    assert bench_compare.count_differences(base, quick) == []
    shorter = _with_counts(make(1_000.0), rows, **changed)
    shorter[rows][0]["duration_s"] = 4.0
    assert bench_compare.count_differences(base, shorter) == []


def test_main_count_exit_code_and_precedence(tmp_path, capsys):
    base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
    payload = _with_counts(_churn_payload(1_000.0), "rows", delivered=771)
    base.write_text(json.dumps(payload))
    differs = _with_counts(_churn_payload(1_000.0), "rows", delivered=770)
    fresh.write_text(json.dumps(differs))
    args = [str(base), str(fresh), "--tolerance", "0.5"]
    assert bench_compare.main(args) == bench_compare.EXIT_COUNT_DIFFERS == 5
    assert "COUNTS DIFFER" in capsys.readouterr().out
    # A count that differs dominates a mismatch ...
    differs["rows"][0]["extra_per_s"] = 1.0
    fresh.write_text(json.dumps(differs))
    assert bench_compare.main(args) == 5
    # ... and a regression dominates both.
    differs["rows"][0]["frames_per_s"] = 1.0
    fresh.write_text(json.dumps(differs))
    assert bench_compare.main(args) == 1
