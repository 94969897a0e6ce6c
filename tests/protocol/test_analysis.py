"""Energy reporting and lifetime estimation."""

import math

import pytest

from repro.analysis import EnergyReport, estimate_lifetime_days
from repro.analysis.lifetime import AA_PAIR_UJ, daily_cost_uj
from repro.sim.energy import EnergyModel
from tests.conftest import run_for, small_deployment


def test_snapshot_sums_node_meters():
    deployed = small_deployment(seed=160)
    report = EnergyReport(deployed.network)
    snap = report.snapshot()
    expected = sum(
        deployed.network.node(nid).energy.consumed for nid in sorted(deployed.agents)
    )
    assert math.isclose(snap.total, expected)
    assert snap.node_count == len(deployed.agents)
    assert math.isclose(snap.total, snap.tx + snap.rx + snap.cpu)


def test_snapshot_bs_toggle():
    deployed = small_deployment(seed=160)
    report = EnergyReport(deployed.network)
    with_bs = report.snapshot(include_bs=True)
    without = report.snapshot(include_bs=False)
    assert with_bs.node_count == without.node_count + 1
    assert with_bs.total >= without.total


def test_delta_between_snapshots():
    deployed = small_deployment(seed=161)
    report = EnergyReport(deployed.network)
    before = report.snapshot()
    src = deployed.gradient.routable()[0]
    deployed.agents[src].send_reading(b"x")
    run_for(deployed, 30)
    delta = report.snapshot().minus(before)
    assert delta.total > 0
    assert delta.tx > 0 and delta.rx > 0
    assert delta.radio_fraction > 0.9  # radio dominates, per the paper


def test_top_spenders():
    deployed = small_deployment(seed=162)
    top = EnergyReport(deployed.network).top_spenders(3)
    assert len(top) == 3
    assert top[0][1] >= top[1][1] >= top[2][1]


def test_empty_breakdown_is_safe():
    from repro.analysis.energy_report import EnergyBreakdown

    zero = EnergyBreakdown(0, 0, 0, 0, 0)
    assert zero.per_node == 0.0
    assert zero.radio_fraction == 0.0


def test_lifetime_estimation():
    assert estimate_lifetime_days(AA_PAIR_UJ) == pytest.approx(1.0)
    assert estimate_lifetime_days(AA_PAIR_UJ / 10) == pytest.approx(10.0)
    assert estimate_lifetime_days(0) == float("inf")


def test_daily_cost_components():
    model = EnergyModel()
    base = daily_cost_uj(model, frames_per_day=0, frame_bytes=0)
    busy = daily_cost_uj(model, frames_per_day=100, frame_bytes=52)
    assert busy > base > 0
    # More overhearing costs more.
    heavy_rx = daily_cost_uj(model, 100, 52, rx_per_tx=20.0)
    assert heavy_rx > busy
