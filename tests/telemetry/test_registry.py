"""MetricsRegistry semantics: counters, gauges, histograms, snapshot."""

import json

import pytest

from repro.telemetry import MetricsRegistry


class TestCounters:
    def test_starts_at_zero(self):
        reg = MetricsRegistry()
        assert reg.counter("tx.hello") == 0

    def test_inc_default_amount(self):
        reg = MetricsRegistry()
        assert reg.inc("tx.hello") == 1
        assert reg.inc("tx.hello") == 2
        assert reg.counter("tx.hello") == 2

    def test_inc_by_amount(self):
        reg = MetricsRegistry()
        reg.inc("net.bytes_sent", 120)
        reg.inc("net.bytes_sent", 80)
        assert reg.counter("net.bytes_sent") == 200

    def test_counters_are_monotonic(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("tx.hello", -1)

    def test_zero_increment_allowed(self):
        reg = MetricsRegistry()
        assert reg.inc("tx.hello", 0) == 0

    def test_independent_names(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("b", 5)
        assert (reg.counter("a"), reg.counter("b")) == (1, 5)


class TestGauges:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("setup.clusters", 13)
        reg.gauge("setup.clusters", 11)
        assert reg.gauges["setup.clusters"] == 11.0

    def test_coerced_to_float(self):
        reg = MetricsRegistry()
        reg.gauge("setup.nodes", 60)
        assert isinstance(reg.gauges["setup.nodes"], float)


class TestHistograms:
    def test_observe_accumulates(self):
        reg = MetricsRegistry()
        for v in (3, 3, 5):
            reg.observe("setup.cluster_size", v)
        assert reg.histograms["setup.cluster_size"].counts == {3: 2, 5: 1}

    def test_observe_with_weight(self):
        reg = MetricsRegistry()
        reg.observe("setup.keys_per_node", 2, weight=7)
        assert reg.histograms["setup.keys_per_node"].counts == {2: 7}


class TestSnapshot:
    def test_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.inc("b.second")
        reg.inc("a.first", 2)
        reg.gauge("g", 1.5)
        reg.observe("h", 4)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert list(snap["counters"]) == ["a.first", "b.second"]
        assert snap["counters"] == {"a.first": 2, "b.second": 1}
        assert snap["gauges"] == {"g": 1.5}
        # Histogram keys are stringified so the snapshot is JSON-clean.
        assert snap["histograms"] == {"h": {"4": 1}}

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.gauge("y", 0.25)
        reg.observe("z", 1)
        assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()

    def test_metric_names_unions_all_kinds(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.gauge("a", 1)
        reg.observe("b", 1)
        assert reg.metric_names() == ["a", "b", "c"]
