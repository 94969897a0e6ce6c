"""Event-queue semantics and the in-process run loop built on it."""

import pytest

from repro.runtime.loopback import LoopbackTransport
from repro.sim.engine import _COMPACT_MIN_CANCELLED, EventQueue


def test_events_fire_in_time_order():
    loop = LoopbackTransport()
    fired = []
    loop.schedule(3.0, lambda: fired.append("c"))
    loop.schedule(1.0, lambda: fired.append("a"))
    loop.schedule(2.0, lambda: fired.append("b"))
    loop.run()
    assert fired == ["a", "b", "c"]
    assert loop.now == 3.0


def test_ties_break_in_scheduling_order():
    loop = LoopbackTransport()
    fired = []
    for name in "abc":
        loop.schedule(1.0, lambda n=name: fired.append(n))
    loop.run()
    assert fired == ["a", "b", "c"]


def test_cancellation():
    loop = LoopbackTransport()
    fired = []
    handle = loop.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    loop.run()
    assert fired == []
    assert loop.events_executed == 0


def test_cancel_after_fire_is_noop():
    loop = LoopbackTransport()
    handle = loop.schedule(0.5, lambda: None)
    loop.run()
    handle.cancel()  # must not raise


def test_run_until_stops_and_advances_clock():
    loop = LoopbackTransport()
    fired = []
    loop.schedule(1.0, lambda: fired.append(1))
    loop.schedule(5.0, lambda: fired.append(5))
    assert loop.run(until=2.0) == 2.0
    assert fired == [1]
    assert loop.now == 2.0
    loop.run()
    assert fired == [1, 5]
    # An idle queue still moves the clock to the horizon.
    assert loop.run(until=9.0) == 9.0


def test_nested_scheduling():
    loop = LoopbackTransport()
    fired = []

    def outer():
        fired.append(("outer", loop.now))
        loop.schedule(0.5, lambda: fired.append(("inner", loop.now)))

    loop.schedule(1.0, outer)
    loop.run()
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_cannot_schedule_into_past():
    loop = LoopbackTransport()
    with pytest.raises(ValueError):
        loop.schedule(-0.1, lambda: None)
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule(-0.5, lambda: None)


def test_pending_excludes_cancelled():
    loop = LoopbackTransport()
    loop.schedule(1.0, lambda: None)
    h = loop.schedule(2.0, lambda: None)
    h.cancel()
    assert loop.pending == 1


def test_double_cancel_counts_once():
    loop = LoopbackTransport()
    loop.schedule(1.0, lambda: None)
    h = loop.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()  # must not decrement the live count twice
    assert loop.pending == 1


def test_pending_after_fire():
    loop = LoopbackTransport()
    loop.schedule(1.0, lambda: None)
    loop.schedule(2.0, lambda: None)
    assert loop.pending == 2
    loop.run(until=1.0)
    assert loop.pending == 1
    loop.run()
    assert loop.pending == 0


def test_queue_compaction_preserves_order():
    """Mass cancellation triggers the heap rebuild; survivors still fire
    in (time, seq) order and the live count stays exact throughout."""
    q = EventQueue()
    fired = []
    handles = []
    for i in range(300):
        handles.append(q.push(float(i), lambda i=i: fired.append(i)))
    keep = set(range(0, 300, 10))
    for i, h in enumerate(handles):
        if i not in keep:
            h.cancel()
    # Compaction must have kicked in: tombstones were the 270 majority.
    assert len(q._heap) < 300
    assert len(q) == len(keep)
    while (item := q.pop_due()) is not None:
        item[1]()
    assert fired == sorted(keep)
    assert len(q) == 0


def test_queue_peek_then_pop_consistency():
    """A limit short of the next live event acts as a peek: the tombstone
    on top is dropped, the live event stays queued, and the next call
    with a limit at exactly its time pops it."""
    q = EventQueue()
    a = q.push(1.0, lambda: "a")
    handle = q.push(2.0, lambda: "b")
    a.cancel()
    assert q.pop_due(1.5) is None
    assert len(q) == 1 and len(q._heap) == 1 and q._cancelled == 0
    time, callback = q.pop_due(2.0)
    assert time == 2.0 and callback() == "b" and handle.fired
    assert q.pop_due() is None


def test_cancel_fired_handle_is_noop():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    q.pop_due()
    h.cancel()
    assert q._cancelled == 0  # a fired event is not a tombstone


def test_loopback_pending_matches_engine_semantics():
    transport = LoopbackTransport()
    transport.schedule(1.0, lambda: None)
    h = transport.schedule(2.0, lambda: None)
    h.cancel()
    h.cancel()
    assert transport.pending == 1
    transport.run()
    assert transport.pending == 0


def test_pop_due_without_limit_drains_in_order():
    q = EventQueue()
    for t in (3.0, 1.0, 2.0):
        q.push(t, lambda t=t: t)
    popped = []
    while (item := q.pop_due()) is not None:
        popped.append(item[0])
    assert popped == [1.0, 2.0, 3.0]


def test_pop_due_marks_handle_fired():
    q = EventQueue()
    handle = q.push(1.0, lambda: None)
    q.pop_due(5.0)
    assert handle.fired
    handle.cancel()  # must be a no-op, not a tombstone
    assert not handle.cancelled
    assert len(q) == 0


def test_compaction_fires_under_heavy_cancel_churn():
    """An election-style burst — schedule n timers, cancel most — must
    shrink the heap itself, not just the live count."""
    q = EventQueue()
    handles = [q.push(float(i), lambda i=i: i) for i in range(1000)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    assert len(q) == 100
    # Tombstones can never dominate: compaction keeps them under half
    # the heap (plus the burst that triggers the rebuild).
    assert len(q._heap) <= 2 * len(q) + _COMPACT_MIN_CANCELLED + 1
    survivors = []
    while (item := q.pop_due()) is not None:
        survivors.append(item[1]())
    assert survivors == [i for i in range(1000) if i % 10 == 0]


def test_cancel_churn_interleaved_with_pops():
    """Cancel-while-draining (hello timers cancelled as clusters form)."""
    q = EventQueue()
    handles = {i: q.push(float(i), lambda i=i: i) for i in range(200)}
    fired = []
    while (item := q.pop_due()) is not None:
        value = item[1]()
        fired.append(value)
        # Each fired event cancels the next three still-pending timers.
        for offset in (1, 2, 3):
            if value + offset in handles:
                handles[value + offset].cancel()
    assert fired == [i for i in range(200) if i % 4 == 0]
    assert len(q) == 0


def test_below_threshold_cancels_keep_tombstones():
    """Tiny queues never compact — the rebuild would cost more than the
    tombstones (and pops reclaim them lazily anyway)."""
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(60)]
    for handle in handles[:59]:
        handle.cancel()
    assert len(q) == 1
    assert len(q._heap) == 60  # all tombstones still parked


def test_pace_sleeps_the_scaled_wall_delta():
    import time

    loop = LoopbackTransport(pace=0.02)
    fired = []
    loop.schedule(1.0, lambda: fired.append(loop.now))
    loop.schedule(2.0, lambda: fired.append(loop.now))
    start = time.monotonic()
    loop.run()
    assert fired == [1.0, 2.0]
    assert time.monotonic() - start >= 0.04
