"""JSONL export round-trip: JsonlWriter / read_records / summarize."""

import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import (
    EventStream,
    JsonlWriter,
    MetricsRegistry,
    PeriodicSampler,
    TelemetryEvent,
    read_records,
    summarize_records,
)


def fixed_clock():
    return 1_000_000.5


class TestJsonlWriter:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        reg = MetricsRegistry()
        reg.inc("tx.hello", 3)
        reg.gauge("setup.clusters", 2)
        reg.observe("setup.cluster_size", 4)
        with JsonlWriter(path, wall_clock=fixed_clock) as writer:
            writer.write_event(TelemetryEvent(time=0.5, kind="setup.begin", node=1))
            writer.write_sample(5.0, reg)
            writer.write_summary(9.0, reg, transport="loopback", nodes=4)
        records = read_records(path)
        assert [r["type"] for r in records] == ["event", "sample", "summary"]
        event, sample, summary = records
        assert event == {
            "type": "event", "t": 0.5, "kind": "setup.begin",
            "node": 1, "wall": 1_000_000.5,
        }
        assert sample["metrics"]["counters"] == {"tx.hello": 3}
        assert sample["metrics"]["histograms"] == {"setup.cluster_size": {"4": 1}}
        assert summary["transport"] == "loopback"
        assert summary["nodes"] == 4
        assert summary["t"] == 9.0

    def test_accepts_open_stream_without_closing_it(self):
        buf = io.StringIO()
        writer = JsonlWriter(buf, wall_clock=fixed_clock)
        writer.write({"type": "event", "t": 0.0, "kind": "k"})
        writer.close()
        assert not buf.closed
        assert buf.getvalue().count("\n") == 1

    def test_subscribe_to_replays_buffered_events(self):
        stream = EventStream(limit=10)
        stream.emit(TelemetryEvent(time=0.0, kind="early"))
        buf = io.StringIO()
        writer = JsonlWriter(buf, wall_clock=fixed_clock)
        unsubscribe = writer.subscribe_to(stream)
        stream.emit(TelemetryEvent(time=1.0, kind="late"))
        unsubscribe()
        stream.emit(TelemetryEvent(time=2.0, kind="after"))
        kinds = [r["kind"] for r in read_lines(buf)]
        assert kinds == ["early", "late"]

    def test_records_written_counter(self):
        buf = io.StringIO()
        writer = JsonlWriter(buf, wall_clock=fixed_clock)
        writer.write_event(TelemetryEvent(time=0.0, kind="k"))
        writer.write_event(TelemetryEvent(time=1.0, kind="k"))
        assert writer.records_written == 2


def read_lines(buf: io.StringIO) -> list[dict]:
    import json

    return [json.loads(line) for line in buf.getvalue().splitlines() if line]


class TestReadRecords:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type":"sample","t":1.0,"metrics":{}}\n\n')
        assert len(read_records(path)) == 1

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type":"sample","t":1.0}\n{oops\n')
        with pytest.raises(ValueError, match=":2:"):
            read_records(path)


class TestPeriodicSampler:
    def test_samples_on_a_virtual_clock(self):
        class FakeClock:
            def __init__(self):
                self.t = 0.0
                self.pending = []

            def now(self):
                return self.t

            def schedule(self, delay, cb):
                self.pending.append((self.t + delay, cb))

                class H:
                    def cancel(inner):
                        pass

                return H()

            def run_until(self, until):
                while self.pending and self.pending[0][0] <= until:
                    t, cb = self.pending.pop(0)
                    self.t = t
                    cb()
                self.t = until

        clock = FakeClock()
        reg = MetricsRegistry()
        buf = io.StringIO()
        writer = JsonlWriter(buf, wall_clock=fixed_clock)
        sampler = PeriodicSampler(clock, reg, writer, period_s=2.0)
        sampler.start()
        clock.run_until(5.0)
        sampler.stop()
        samples = [r for r in read_lines(buf) if r["type"] == "sample"]
        assert [s["t"] for s in samples] == [0.0, 2.0, 4.0]
        assert sampler.samples_taken == 3

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicSampler(None, MetricsRegistry(), None, period_s=0.0)


class TestSummarize:
    def test_prefers_last_summary_record(self):
        records = [
            {"type": "sample", "t": 1.0,
             "metrics": {"counters": {"tx.hello": 1}, "gauges": {}}},
            {"type": "summary", "t": 9.0, "transport": "sim", "nodes": 5,
             "metrics": {"counters": {"tx.hello": 4, "tx.linkinfo": 5,
                                      "bs.delivered": 2},
                         "gauges": {"setup.clusters": 2.0,
                                    "setup.mean_keys_per_node": 3.0}}},
        ]
        summary = summarize_records(records)
        assert summary.transport == "sim"
        assert summary.n == 5
        assert summary.hello_messages == 4
        assert summary.linkinfo_messages == 5
        assert summary.clusters == 2
        assert summary.mean_keys_per_node == 3.0
        assert summary.readings_delivered == 2
        assert summary.messages_per_node == pytest.approx(9 / 5)

    def test_falls_back_to_setup_nodes_gauge(self):
        records = [{"type": "sample", "t": 1.0,
                    "metrics": {"counters": {}, "gauges": {"setup.nodes": 40.0}}}]
        assert summarize_records(records).n == 40

    def test_event_only_stream_raises(self):
        with pytest.raises(ValueError):
            summarize_records([{"type": "event", "t": 0.0, "kind": "k"}])


# -- totality over arbitrary input ------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
#: Records shaped like an export, with any value where a field should be.
SNAPSHOTS = st.fixed_dictionaries(
    {"type": st.sampled_from(["summary", "sample", "event"])},
    optional={
        "metrics": JSON_VALUES
        | st.fixed_dictionaries(
            {}, optional={"counters": JSON_VALUES, "gauges": JSON_VALUES}
        ),
        "nodes": JSON_VALUES,
        "t": JSON_VALUES,
        "transport": JSON_VALUES,
        "events_dropped": JSON_VALUES,
    },
)
LINES = st.lists(
    st.text(max_size=40)
    | JSON_VALUES.map(json.dumps)
    | SNAPSHOTS.map(json.dumps),
    max_size=6,
)


class TestTotality:
    def test_non_object_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"type": "event"}\n\n[1]\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
            read_records(path)

    @given(LINES)
    @settings(max_examples=300, deadline=None)
    def test_summarize_arbitrary_lines_raises_only_value_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.jsonl"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                summarize_records(read_records(path))
            except ValueError:
                pass
