"""Discrete-event calendar queue.

A classic calendar queue on :mod:`heapq`: events are ``(time, seq,
handle, callback)`` entries, ``seq`` breaks ties deterministically in
scheduling order, and cancellation is lazy (cancelled handles are skipped
when popped, which keeps :meth:`EventHandle.cancel` O(1) — important
because cluster formation cancels one pending timer per node that joins a
cluster).

:class:`EventQueue` is the queue under the in-process run loop
(:class:`~repro.runtime.loopback.LoopbackTransport`). It maintains a live (non-cancelled,
non-fired) event count so ``pending`` is O(1) instead of a heap scan, and
compacts the heap when cancelled tombstones outnumber live events — an
election over n nodes cancels O(n) timers that would otherwise sit in the
heap until their deadlines drain past.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Tombstone count below which compaction is never attempted; rebuilding a
#: tiny heap costs more bookkeeping than the tombstones do.
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Cancellable reference to a scheduled event."""

    __slots__ = ("time", "cancelled", "fired", "_queue")

    def __init__(self, time: float, queue: "EventQueue | None" = None) -> None:
        self.time = time
        self.cancelled = False
        self.fired = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_cancel()


class EventQueue:
    """``(time, seq)``-ordered calendar queue with O(1) live count.

    ``len(queue)`` is the number of events that will still fire. Cancelled
    entries stay in the heap as tombstones (O(1) cancel) and are skipped
    by :meth:`pop_due`; once tombstones dominate the heap it is rebuilt
    from the live entries in one O(n) pass.
    """

    __slots__ = ("_heap", "_seq", "_cancelled")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle, Callable[[], Any]]] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled, not yet fired) events."""
        return len(self._heap) - self._cancelled

    def push(self, time: float, callback: Callable[[], Any]) -> EventHandle:
        """Enqueue ``callback`` at ``time``; ties fire in push order."""
        handle = EventHandle(time, self)
        heapq.heappush(self._heap, (time, self._seq, handle, callback))
        self._seq += 1
        return handle

    def pop_due(self, limit: float | None = None) -> tuple[float, Callable[[], Any]] | None:
        """Dequeue the next live event due by ``limit`` in one heap pass.

        Cancelled tombstones on top of the heap are dropped on the way.
        ``limit=None`` takes any event; otherwise only an event with
        ``time <= limit`` is popped, and a later one stays queued
        untouched. Marks the returned event's handle as fired (its
        ``cancel`` becomes a no-op and it no longer counts as a
        tombstone).
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            handle = entry[2]
            if handle.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            time = entry[0]
            if limit is not None and time > limit:
                return None
            pop(heap)
            handle.fired = True
            return time, entry[3]
        return None

    def _on_cancel(self) -> None:
        """Account for one newly cancelled entry; compact if dominated."""
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only (O(n))."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
