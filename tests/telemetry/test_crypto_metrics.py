"""crypto.* metrics: the global-counter -> registry delta bridge."""

from __future__ import annotations

from repro.crypto import aead
from repro.crypto.aead import open_, seal
from repro.crypto.stats import STATS
from repro.sim.trace import Trace
from repro.telemetry import CryptoMetricsPublisher, MetricsRegistry

KEY = bytes(range(16))


def test_stats_count_seals_and_opens():
    before = STATS.snapshot()
    sealed = seal(KEY, 1, b"reading")
    open_(KEY, 1, sealed)
    after = STATS.snapshot()
    assert after["seals"] == before["seals"] + 1
    assert after["opens"] == before["opens"] + 1
    assert after["keystream_blocks"] > before["keystream_blocks"]


def test_vector_blocks_counted_only_on_vector_backend(keystream_backend):
    keystream_backend("pure")
    pure_before = STATS.snapshot()
    seal(KEY, 1, b"reading")
    pure_after = STATS.snapshot()
    assert pure_after["keystream_vector_blocks"] == pure_before["keystream_vector_blocks"]

    keystream_backend("vector")
    seal(KEY, 1, b"reading")
    vec_after = STATS.snapshot()
    assert vec_after["keystream_vector_blocks"] > pure_after["keystream_vector_blocks"]


def test_publisher_folds_deltas_once():
    registry = MetricsRegistry()
    publisher = CryptoMetricsPublisher(registry)
    seal(KEY, 2, b"reading one")
    seal(KEY, 3, b"reading two")
    publisher.publish()
    assert registry.counter("crypto.seals") == 2
    # A second publish with no new work adds nothing.
    publisher.publish()
    assert registry.counter("crypto.seals") == 2
    seal(KEY, 4, b"reading three")
    publisher.publish()
    assert registry.counter("crypto.seals") == 3


def test_publisher_baseline_excludes_prior_work():
    """A publisher only sees work done after its construction."""
    seal(KEY, 5, b"earlier deployment traffic")
    registry = MetricsRegistry()
    publisher = CryptoMetricsPublisher(registry)
    publisher.publish()
    assert registry.counter("crypto.seals") == 0


def test_publisher_gauges_active_backend(keystream_backend):
    registry = MetricsRegistry()
    publisher = CryptoMetricsPublisher(registry)
    keystream_backend("vector")
    publisher.publish()
    assert registry.snapshot()["gauges"]["crypto.backend_vector"] == 1.0
    keystream_backend("pure")
    publisher.publish()
    assert registry.snapshot()["gauges"]["crypto.backend_vector"] == 0.0


def test_telemetry_snapshot_publishes_crypto():
    trace = Trace()
    seal(KEY, 6, b"reading")
    snap = trace.snapshot()
    assert snap["counters"]["crypto.seals"] >= 1
    assert "crypto.keystream_blocks" in snap["counters"]
    assert "crypto.backend_vector" in snap["gauges"]


def test_publisher_reports_reused_keystream_blocks():
    """Opening a frame reuses the verified open its seal primed."""
    aead._opened.clear()
    registry = MetricsRegistry()
    publisher = CryptoMetricsPublisher(registry)
    sealed = seal(KEY, 7, b"broadcast reading")
    open_(KEY, 7, sealed)
    open_(KEY, 7, sealed)
    publisher.publish()
    blocks = registry.counter("crypto.keystream_blocks")
    assert blocks == 9  # three requests of three 8-byte blocks
    assert registry.counter("crypto.keystream_reused_blocks") == 6
