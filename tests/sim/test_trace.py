"""Trace counters and bounded event log."""

from repro.sim.trace import Trace
from repro.telemetry import TelemetryEvent


def test_counters():
    trace = Trace()
    trace.count("tx.hello")
    trace.count("tx.hello", 2)
    assert trace["tx.hello"] == 3
    assert trace["never.seen"] == 0  # Counter semantics: default 0
    assert trace.registry.counter("tx.hello") == 3


def test_log_disabled_by_default():
    trace = Trace()
    trace.record(1.0, "evt", detail="x")
    assert trace.events.events == []


def test_log_bounded():
    trace = Trace(log_limit=2)
    for i in range(5):
        trace.record(float(i), "evt", i=i)
    assert len(trace.events) == 2
    assert trace.events.events[0] == TelemetryEvent(0.0, "evt", details={"i": 0})


def test_overflow_is_counted_not_silent():
    trace = Trace(log_limit=2)
    assert not trace.events.truncated
    for i in range(5):
        trace.record(float(i), "evt", i=i)
    assert trace.events.dropped == 3
    assert trace.events.truncated


def test_disabled_log_counts_nothing_as_dropped():
    trace = Trace()  # log_limit=0: logging off, not a full log
    trace.record(1.0, "evt")
    assert trace.events.dropped == 0
    assert not trace.events.truncated
