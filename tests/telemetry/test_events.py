"""EventStream semantics: bounded buffer, subscribers, Trace.record."""

import pytest

from repro.sim.trace import Trace
from repro.telemetry import EventStream, TelemetryEvent


def ev(i: float) -> TelemetryEvent:
    return TelemetryEvent(time=i, kind="test.tick")


class TestBuffer:
    def test_unbuffered_by_default(self):
        stream = EventStream()
        stream.emit(ev(1.0))
        assert len(stream) == 0
        assert stream.dropped == 0
        assert not stream.truncated

    def test_buffers_up_to_limit(self):
        stream = EventStream(limit=2)
        for i in range(5):
            stream.emit(ev(float(i)))
        assert len(stream) == 2
        assert [e.time for e in stream.events] == [0.0, 1.0]
        assert stream.dropped == 3
        assert stream.truncated

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            EventStream(limit=-1)


class TestSubscribers:
    def test_subscribers_see_every_event_even_unbuffered(self):
        stream = EventStream(limit=0)
        seen = []
        stream.subscribe(seen.append)
        for i in range(3):
            stream.emit(ev(float(i)))
        assert [e.time for e in seen] == [0.0, 1.0, 2.0]

    def test_subscribers_see_events_past_the_buffer_limit(self):
        stream = EventStream(limit=1)
        seen = []
        stream.subscribe(seen.append)
        stream.emit(ev(0.0))
        stream.emit(ev(1.0))
        assert len(seen) == 2
        assert len(stream) == 1

    def test_unsubscribe(self):
        stream = EventStream()
        seen = []
        unsubscribe = stream.subscribe(seen.append)
        stream.emit(ev(0.0))
        unsubscribe()
        unsubscribe()  # idempotent
        stream.emit(ev(1.0))
        assert [e.time for e in seen] == [0.0]


class TestTelemetryEmit:
    def test_emit_builds_typed_event(self):
        tel = Trace(log_limit=8)
        event = tel.record(3.5, "setup.end", phase="setup", clusters=4)
        assert event.time == 3.5
        assert event.kind == "setup.end"
        assert event.phase == "setup"
        assert event.details == {"clusters": 4}
        assert tel.events.events == [event]

    def test_to_record_omits_empty_fields(self):
        bare = TelemetryEvent(time=1.0, kind="k").to_record()
        assert bare == {"type": "event", "t": 1.0, "kind": "k"}
        full = TelemetryEvent(
            time=1.0, kind="k", node=7, phase="setup", details={"x": 1}
        ).to_record()
        assert full["node"] == 7
        assert full["phase"] == "setup"
        assert full["details"] == {"x": 1}

    def test_snapshot_accounts_for_buffer(self):
        tel = Trace(log_limit=1)
        tel.record(0.0, "a")
        tel.record(1.0, "b")
        snap = tel.snapshot()
        assert snap["events_logged"] == 1
        assert snap["events_dropped"] == 1
