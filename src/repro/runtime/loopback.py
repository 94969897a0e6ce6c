"""The in-process event fabric: one synchronous ``(time, seq)`` run loop.

Runs every node in one process on a *virtual* protocol clock: timers and
frame deliveries share one :class:`~repro.sim.engine.EventQueue`, so a
run is bit-deterministic for a fixed seed. This is the only in-process
run loop. With ``pace > 0`` the loop sleeps the scaled wall-clock delta
before each event, turning the deployment into a live, watchable system
without touching protocol code.

On every send the fabric consults its network's
:class:`~repro.sim.radio.Radio`, the link model: the radio decides at
send time which neighbors a frame reaches and when (liveness, loss,
collisions, CSMA deferral, energy), and the fabric queues one fan-out
event that hands the frame to those receivers at the arrival instant.
Faults beyond the radio model — duplication, reordering, delay,
corruption, crashes, partitions — come from wrapping the fabric in
:class:`~repro.runtime.faults.FaultInjectingTransport` (``deploy(...,
fault_plan=...)``), whose per-delivery decision the fan-out loop calls
in place of each receiver's ``receive`` (:attr:`LoopbackTransport.inject`).
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import EventHandle, EventQueue
from repro.sim.trace import Trace
from repro.runtime.transport import ReceiveEndpoint, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.radio import Radio

__all__ = ["LoopbackTransport"]


class LoopbackTransport(Transport):
    """Deterministic in-process fabric on a virtual clock."""

    name = "loopback"

    def __init__(self, trace: Trace | None = None, pace: float = 0.0) -> None:
        """``pace`` is wall seconds per protocol second (0 = run events
        back-to-back). The link model comes from the network the fabric
        is attached to."""
        if pace < 0:
            raise ValueError("pace must be >= 0")
        super().__init__(trace=trace)
        self.pace = pace
        self.radio: "Radio | None" = None
        #: Called as ``inject(endpoint, sender_id, frame, reception)`` in
        #: place of ``endpoint.receive``, with the fan-out's shared
        #: reception pass or None; set by a wrapping FaultInjectingTransport.
        self.inject: Callable[[ReceiveEndpoint, int, bytes, Any], None] | None = None
        self._nodes: dict[int, ReceiveEndpoint] = {}
        self._events = EventQueue()
        self._now = 0.0
        self.events_executed = 0

    # -- Transport interface -------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Use ``network``'s radio as the link model."""
        self.radio = network.radio

    def register(self, node: ReceiveEndpoint) -> None:
        """Attach ``node`` as the receive endpoint for its id."""
        self._nodes[node.id] = node

    @property
    def now(self) -> float:
        """The virtual protocol clock (advanced by executed events)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Arm ``callback`` on the ``(time, seq)``-ordered virtual queue."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._events.push(self._now + delay, callback)

    def broadcast(self, sender_id: int, frame: bytes, _attempt: int = 0) -> None:
        """Put ``frame`` on the air and queue its fan-out.

        ``_attempt`` counts CSMA retries: a deferred frame re-enters here
        from the radio's backoff timer.
        """
        radio = self.radio
        assert radio is not None, "fabric is not attached to a network"
        sent = radio.transmit(self, sender_id, frame, _attempt)
        if sent is None:
            return
        arrival, receivers = sent
        if receivers:
            self.schedule(
                arrival - self._now, _FanoutDelivery(self, receivers, sender_id, frame)
            )

    def run(self, until: float | None = None) -> float:
        """Execute pending events up to ``until`` and advance the clock to it.

        Pops due events in ``(time, seq)`` order and fires them; events at
        exactly ``until`` fire too. The clock then advances to a finite
        ``until``. Returns the clock.
        """
        events = self._events
        pace = self.pace
        while True:
            item = events.pop_due(until)
            if item is None:
                break
            when, callback = item
            if pace > 0.0 and when > self._now:
                time.sleep((when - self._now) * pace)
            self._now = when
            # Incremented per event (not batched): samplers scheduled as
            # events read this counter mid-run.
            self.events_executed += 1
            callback()
        if until is not None and self._now < until < math.inf:
            self._now = until
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued, non-cancelled events — O(1)."""
        return len(self._events)


class _FanoutDelivery:
    """Bound delivery of one frame to every surviving receiver (one event).

    All receivers of a frame share its arrival instant, so one queue entry
    stands for all of them, visited in adjacency order. Liveness is checked
    again at delivery, and the fabric's ``inject`` decision (if any) is
    applied there. ``events_executed`` is bumped by
    ``len(receivers) - 1`` so the throughput metric keeps counting
    per-receiver deliveries, not queue pops.
    """

    __slots__ = ("transport", "receivers", "sender_id", "frame")

    def __init__(
        self,
        transport: LoopbackTransport,
        receivers: list[int],
        sender_id: int,
        frame: bytes,
    ) -> None:
        self.transport = transport
        self.receivers = receivers
        self.sender_id = sender_id
        self.frame = frame

    def __call__(self) -> None:
        transport = self.transport
        receivers = self.receivers
        transport.events_executed += len(receivers) - 1
        radio = transport.radio
        assert radio is not None
        radio.deliver(
            transport._nodes, receivers, self.sender_id, self.frame, transport.inject
        )
