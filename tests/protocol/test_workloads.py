"""Workload generators."""

import numpy as np
import pytest

from repro.workloads import ContinuousReporting, PeriodicReporting, PoissonEvents
from tests.conftest import run_for, small_deployment


@pytest.fixture
def loaded():
    return small_deployment(n=150, density=11.0, seed=220)


def routable(deployed, k):
    return deployed.gradient.routable()[:k]


class TestPeriodicReporting:
    def test_all_reports_sent_and_delivered(self, loaded):
        sources = routable(loaded, 10)
        wl = PeriodicReporting(loaded, sources, period_s=5.0, rounds=3)
        wl.start()
        run_for(loaded, wl.duration_s + 30)
        assert len(wl.sent) == 30
        assert wl.delivery_ratio() == 1.0

    def test_latencies_positive_and_bounded(self, loaded):
        sources = routable(loaded, 8)
        wl = PeriodicReporting(loaded, sources, period_s=5.0, rounds=2)
        wl.start()
        run_for(loaded, wl.duration_s + 30)
        lats = wl.latencies()
        assert len(lats) == len(wl.sent)
        assert all(0 < lat < 5.0 for lat in lats)

    def test_staggering_spreads_sends(self, loaded):
        sources = routable(loaded, 10)
        wl = PeriodicReporting(loaded, sources, period_s=10.0, rounds=1)
        wl.start()
        run_for(loaded, wl.duration_s + 10)
        times = sorted(s.time for s in wl.sent)
        assert times[-1] - times[0] > 1.0  # not synchronized

    def test_orphaned_source_counts_failure(self, loaded):
        sources = routable(loaded, 3)
        agent = loaded.agents[sources[0]]
        agent.state.keyring.remove(agent.state.cid)
        agent.state.cid = None
        wl = PeriodicReporting(loaded, sources, period_s=2.0, rounds=1)
        wl.start()
        run_for(loaded, wl.duration_s + 10)
        assert wl.send_failures == 1
        assert len(wl.sent) == 2

    def test_validation(self, loaded):
        with pytest.raises(ValueError):
            PeriodicReporting(loaded, [1], period_s=0, rounds=1)
        with pytest.raises(ValueError):
            PeriodicReporting(loaded, [1], period_s=1, rounds=0)


class TestContinuousReporting:
    def test_requeries_sources_every_tick(self, loaded):
        pool = routable(loaded, 3)
        active = list(pool[:2])
        wl = ContinuousReporting(
            loaded, lambda: list(active), period_s=5.0, duration_s=40.0
        )
        wl.start()
        run_for(loaded, 12)
        switch_at = loaded.now()
        active.append(pool[2])  # a join starts reporting...
        active.remove(pool[0])  # ...and a departure silently drops out
        run_for(loaded, 40)
        joined_sends = [s for s in wl.sent if s.source == pool[2]]
        assert joined_sends and all(s.time > switch_at for s in joined_sends)
        # Sends already scheduled at the switch land within one period.
        late = [s for s in wl.sent if s.source == pool[0] and s.time > switch_at + 5.0]
        assert late == []
        assert wl.delivery_ratio() == 1.0

    def test_window_delivery_ratio(self, loaded):
        sources = routable(loaded, 5)
        wl = ContinuousReporting(
            loaded, lambda: sources, period_s=5.0, duration_s=20.0
        )
        wl.start()
        run_for(loaded, 40)
        assert wl.window_delivery_ratio(0.0, loaded.now()) == wl.delivery_ratio()
        assert wl.window_delivery_ratio(1e6, 2e6) == 1.0  # idle, not failing

    def test_unroutable_sources_are_skipped_and_counted(self, loaded):
        sources = routable(loaded, 3)
        wl = ContinuousReporting(loaded, lambda: sources, period_s=5.0, duration_s=20.0)
        wl.start()
        run_for(loaded, 7)
        ticks = wl.unroutable
        cut_at = loaded.now()
        loaded.gradient.levels[sources[0]] = -1
        run_for(loaded, 33)
        assert ticks == 0 and wl.unroutable == 2  # the ticks at 10 s and 15 s
        # Sends already scheduled at the cut land within half a period.
        assert not [s for s in wl.sent if s.source == sources[0] and s.time > cut_at + 2.5]
        assert wl.send_failures == 0
        assert wl.delivery_ratio() == 1.0

    def test_validation(self, loaded):
        with pytest.raises(ValueError):
            ContinuousReporting(loaded, list, period_s=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            ContinuousReporting(loaded, list, period_s=1.0, duration_s=0.0)


class TestPoissonEvents:
    def test_events_reported_and_delivered(self, loaded):
        wl = PoissonEvents(loaded, rate_per_s=0.5, duration_s=40.0,
                           reporters_per_event=3, rng=np.random.default_rng(1))
        wl.start()
        run_for(loaded, wl.duration_s + 30)
        assert wl.events
        assert len(wl.sent) >= len(wl.events)  # >=1 reporter per event sent
        assert wl.delivered_event_fraction() == 1.0

    def test_reporters_are_nearest(self, loaded):
        wl = PoissonEvents(loaded, rate_per_s=0.2, duration_s=20.0,
                           reporters_per_event=2, rng=np.random.default_rng(2))
        wl.start()
        run_for(loaded, wl.duration_s + 10)
        # Every reporter of an event is within a few radio ranges of it.
        radius = loaded.network.deployment.radius
        events = dict(enumerate(pos for _, pos in wl.events))
        for s in wl.sent:
            pos = loaded.network.node(s.source).position
            d = float(np.linalg.norm(pos - events[s.event_id]))
            assert d < 6 * radius

    def test_validation(self, loaded):
        with pytest.raises(ValueError):
            PoissonEvents(loaded, rate_per_s=0, duration_s=1)
        with pytest.raises(ValueError):
            PoissonEvents(loaded, rate_per_s=1, duration_s=1, reporters_per_event=0)
