"""SoakWorkload delivery accounting, warmup discipline, and loss behavior."""

from __future__ import annotations

import pytest

from repro.protocol.config import ProtocolConfig
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.workloads import SoakStats, SoakWorkload
from tests.conftest import run_for, small_deployment


def _live(loss: float = 0.0, n: int = 50, seed: int = 7):
    """Loopback deployment with retransmits on and optional link loss."""
    fault_plan = None
    if loss > 0:
        fault_plan = FaultPlan(seed=seed, defaults=LinkFaults(drop=loss))
    deployed, _metrics = deploy_live(
        n=n,
        density=10.0,
        seed=seed,
        transport="loopback",
        config=ProtocolConfig(hop_ack_enabled=True),
        fault_plan=fault_plan,
    )
    deployed.assign_gradient()
    return deployed


class TestDeliveryAccounting:
    def test_clean_fabric_delivers_everything(self):
        deployed = _live()
        wl = SoakWorkload(deployed, offered_load_fps=50.0, duration_s=4.0, seed=1)
        wl.start()
        deployed.run_for(6.0)
        stats = wl.stats()
        assert stats.sent == 200
        assert stats.delivered == stats.sent
        assert stats.delivery_ratio == 1.0
        assert wl.send_failures == 0
        assert len(stats.latencies_s) == stats.delivered
        assert all(lat > 0 for lat in stats.latencies_s)
        # Hop latency is end-to-end latency / hops, so never larger.
        assert all(h <= lat for h, lat in zip(stats.hop_latencies_s, stats.latencies_s))

    def test_warmup_excluded_from_window(self):
        deployed = _live()
        wl = SoakWorkload(
            deployed, offered_load_fps=50.0, duration_s=4.0, warmup_s=2.0, seed=1
        )
        wl.start()
        deployed.run_for(6.0)
        stats = wl.stats()
        # All 200 were offered; only the post-warmup half is measured.
        assert len(wl.sent) == 200
        assert stats.sent == pytest.approx(100, abs=2)
        lo, hi = wl.measurement_window()
        assert hi - lo == pytest.approx(2.0)
        assert stats.window_s == pytest.approx(2.0)

    def test_works_on_sim_fabric_too(self):
        deployed = small_deployment(n=100, density=10.0, seed=3)
        wl = SoakWorkload(deployed, offered_load_fps=20.0, duration_s=3.0, seed=3)
        wl.start()
        run_for(deployed, 6.0)
        stats = wl.stats()
        assert stats.sent == 60
        assert stats.delivery_ratio == 1.0


class TestUnderLoss:
    def test_fifteen_percent_loss_with_retransmits(self):
        deployed = _live(loss=0.15)
        wl = SoakWorkload(deployed, offered_load_fps=50.0, duration_s=4.0, seed=2)
        wl.start()
        deployed.run_for(8.0)
        stats = wl.stats()
        assert stats.sent == 200
        # Hop-by-hop custody retransmits recover most of the 15% drops.
        assert stats.delivery_ratio > 0.8
        assert stats.delivered < stats.sent or stats.delivery_ratio == 1.0
        assert deployed.network.trace.counters["net.retx.sent"] > 0
        # Losses make the latency tail real: p99 >= p50.
        assert stats.latency_percentile_ms(99) >= stats.latency_percentile_ms(50)


class TestTelemetry:
    def test_soak_metrics_published(self):
        deployed = _live()
        wl = SoakWorkload(deployed, offered_load_fps=40.0, duration_s=2.0, seed=4)
        wl.start()
        deployed.run_for(4.0)
        counters = deployed.network.trace.counters
        assert counters["forward.soak.sent"] == 80
        assert counters["forward.soak.delivered"] == 80
        stats = wl.stats()
        snapshot = deployed.network.trace.registry.snapshot()
        gauges = snapshot["gauges"]
        assert gauges["forward.soak.offered_load_fps"] == 40.0
        assert gauges["forward.soak.delivery_ratio"] == stats.delivery_ratio
        assert gauges["forward.soak.p50_latency_ms"] == stats.latency_percentile_ms(50)
        assert "forward.soak.latency_ms" in snapshot["histograms"]


class TestValidationAndStats:
    def test_parameter_validation(self):
        deployed = _live(n=30)
        with pytest.raises(ValueError):
            SoakWorkload(deployed, offered_load_fps=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            SoakWorkload(deployed, offered_load_fps=1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            SoakWorkload(deployed, offered_load_fps=1.0, duration_s=1.0, warmup_s=1.0)
        with pytest.raises(ValueError):
            SoakWorkload(deployed, offered_load_fps=1.0, duration_s=1.0, sources=[])

    def test_stats_percentiles(self):
        stats = SoakStats(
            sent=4,
            delivered=3,
            send_failures=0,
            window_s=10.0,
            latencies_s=(0.010, 0.020, 0.030),
            hop_latencies_s=(0.005, 0.010, 0.015),
        )
        assert stats.delivery_ratio == 0.75
        assert stats.latency_percentile_ms(0) == 10.0
        assert stats.latency_percentile_ms(50) == 20.0
        assert stats.latency_percentile_ms(100) == 30.0
        assert stats.hop_latency_percentile_ms(100) == 15.0

    def test_empty_stats_are_zero(self):
        stats = SoakStats(
            sent=0, delivered=0, send_failures=0, window_s=1.0,
            latencies_s=(), hop_latencies_s=(),
        )
        assert stats.delivery_ratio == 1.0
        assert stats.latency_percentile_ms(50) == 0.0
