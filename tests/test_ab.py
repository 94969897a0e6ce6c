"""scripts/ab.py: the sign test, the run alternation and the summary."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).parent.parent / "scripts" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


@pytest.mark.parametrize(
    ("wins", "losses", "p"),
    [
        (0, 0, 1.0),
        (5, 5, 1.0),
        (10, 0, 2 / 1024),
        (0, 10, 2 / 1024),
        (9, 1, 22 / 1024),
        (8, 2, 112 / 1024),
        (1, 0, 1.0),
    ],
)
def test_sign_test_p(wins, losses, p):
    assert ab.sign_test_p(wins, losses) == pytest.approx(p)


def test_sign_test_is_symmetric():
    for wins in range(8):
        assert ab.sign_test_p(wins, 7 - wins) == ab.sign_test_p(7 - wins, wins)


def test_run_order_alternates_starting_with_the_parent():
    orders = [ab.run_order(pair) for pair in range(4)]
    assert orders == [
        ("parent", "change"),
        ("change", "parent"),
        ("parent", "change"),
        ("change", "parent"),
    ]


def _run(value: float) -> dict:
    return {"correct": True, "metrics": {"delivered_per_s": {"value": value}}}


def test_summary_counts_wins_in_the_metric_direction():
    spec = {"end_to_end": [{"name": "delivered_per_s", "unit": "readings/s", "better": "higher"}]}
    runs = {
        "parent": [_run(v) for v in (10.0, 10.0, 12.0, 11.0)],
        "change": [_run(v) for v in (11.0, 10.0, 11.0, 12.0)],
    }
    (row,) = ab.summarize(spec, runs)
    assert row["change_wins"] == 2  # one loss, one tie
    assert row["pairs"] == 4
    assert row["parent_median"] == 10.5 and row["change_median"] == 11.0
    assert row["sign_p"] == pytest.approx(ab.sign_test_p(2, 1))
