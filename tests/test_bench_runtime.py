"""``repro bench runtime`` rows: a median over identical setups, exact counts."""

from __future__ import annotations

import itertools

import pytest

import repro.runtime
from repro.bench import runtime as bench


def test_row_reports_median_and_iqr_of_identical_setups():
    row = bench.run_setup_row("loopback", 100)
    assert row["setup_wall_iqr_s"] >= 0.0
    assert row["events_per_s"] == pytest.approx(
        row["events_executed"] / row["setup_wall_s"], rel=1e-2
    )
    assert row["clusters"] > 0 and row["frames_sent"] > 0


def test_row_refuses_counts_that_differ_between_runs(monkeypatch):
    deploy_live = repro.runtime.deploy_live
    seeds = itertools.count()

    def drifting(n, density, seed=0, **kwargs):
        # Every run a different field: the count columns move.
        return deploy_live(n, density, seed=next(seeds), **kwargs)

    monkeypatch.setattr(repro.runtime, "deploy_live", drifting)
    with pytest.raises(RuntimeError, match="counts differ"):
        bench.run_setup_row("loopback", 100)
