"""Broadcast unit-disk radio with airtime, energy and collision accounting.

Every transmission is a local broadcast: all alive unit-disk neighbors of
the sender receive the frame (the physical property the protocol exploits
to broadcast one encryption to all neighbors). The model charges energy
per byte on both ends, delays delivery by propagation + airtime at the
configured bitrate, and can optionally drop overlapping receptions as
collisions. Link loss is not a radio property: it is a
:class:`~repro.runtime.faults.FaultPlan` ``drop`` decision, made per
reception at delivery time on every transport.

:class:`Radio` is the link model of the in-process fabric
(:class:`~repro.runtime.loopback.LoopbackTransport`): the fabric asks it
on every send which receivers a frame reaches and when, then queues one
fan-out event for them.

A passive *monitor* hook sees every frame on the air regardless of
position — that is the paper's adversary model ("the broadcast nature of
the transmission medium makes information more vulnerable"), and the
attack tooling in :mod:`repro.attacks` uses it to eavesdrop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.util.validate import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.loopback import LoopbackTransport
    from repro.runtime.transport import ReceiveEndpoint
    from repro.sim.network import Network
    from repro.sim.trace import Trace

# (time, sender_id, frame) for every transmission on the air.
Monitor = Callable[[float, int, bytes], None]


#: MAC-layer models: "ideal" transmits immediately (the usual setting for
#: protocol-level simulations); "csma" senses the channel and backs off
#: with random slotted delays before transmitting, like a real mote MAC.
MAC_MODELS = ("ideal", "csma")


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters.

    Defaults model a mica-class 19.2 kbps radio with an 11-byte link-layer
    header, no collisions and an ideal MAC (the common setting for
    protocol-level key-management simulations; collisions and CSMA are
    enabled by failure-injection tests and ablations).
    """

    bitrate_bps: float = 19_200.0
    header_bytes: int = 11
    propagation_delay_s: float = 1e-6
    model_collisions: bool = False
    mac: str = "ideal"
    #: CSMA backoff slot (seconds) and maximum deferral attempts.
    csma_slot_s: float = 0.4e-3
    csma_max_attempts: int = 16

    def __post_init__(self) -> None:
        check_positive("bitrate_bps", self.bitrate_bps)
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be >= 0")
        if self.mac not in MAC_MODELS:
            raise ValueError(f"mac must be one of {MAC_MODELS}, got {self.mac!r}")
        check_positive("csma_slot_s", self.csma_slot_s)
        if self.csma_max_attempts < 1:
            raise ValueError("csma_max_attempts must be >= 1")

    def airtime(self, payload_bytes: int) -> float:
        """Seconds the frame occupies the channel."""
        return (payload_bytes + self.header_bytes) * 8.0 / self.bitrate_bps


class Radio:
    """The shared broadcast medium: the in-process fabric's link model.

    :meth:`transmit` makes every per-frame decision at send time, in
    adjacency order: sender liveness, CSMA deferral, energy and
    counters, then each receiver's liveness and collision.
    :meth:`deliver` hands a frame to its surviving receivers when the
    fabric's fan-out event fires. The radio schedules no delivery events
    itself; the fabric queues one fan-out per frame.
    """

    def __init__(self, network: "Network", config: RadioConfig, rng) -> None:
        self._network = network
        self.config = config
        self._rng = rng
        self.monitors: list[Monitor] = []
        # Per-receiver end-of-current-reception time, for collision checks.
        self._rx_busy_until: dict[int, float] = {}
        # Per-node end-of-sensed-carrier time, for CSMA.
        self._carrier_until: dict[int, float] = {}
        #: Shared reception passes by frame type byte. ``factory(frame,
        #: now, trace)`` makes one pass for a frame of that type; the
        #: fan-out hands it to every receiving endpoint (``receive(sender_id,
        #: frame, reception)``, or through ``inject``), then calls its
        #: ``close()``. The protocol registers its DATA and LINKINFO
        #: receptions here (one open per broadcast, see
        #: :class:`repro.protocol.agent.SharedReception`).
        self.receptions: dict[int, Callable[[bytes, float, Trace], Any]] = {}
        self.csma_deferrals = 0
        self.csma_drops = 0

    def transmit(
        self, fabric: "LoopbackTransport", sender_id: int, frame: bytes, attempt: int = 0
    ) -> tuple[float, list[int]] | None:
        """Put ``frame`` from ``sender_id`` on the air.

        Returns ``(arrival, receivers)``: the arrival instant and the
        neighbors the frame survives to, in adjacency order. Returns None
        when nothing went on the air: a dead sender, or a busy channel
        under the CSMA MAC. A deferred frame is retried on ``fabric``
        after a random slotted backoff, up to ``csma_max_attempts``
        tries; then it is dropped and counted in ``csma_drops``.
        """
        net = self._network
        config = self.config
        nodes = net.nodes
        sender = nodes[sender_id]
        if not sender.alive:
            return None
        now = fabric.now
        csma = config.mac == "csma"
        if csma and now < self._carrier_until.get(sender_id, -1.0):
            if attempt >= config.csma_max_attempts:
                self.csma_drops += 1
                return None
            self.csma_deferrals += 1
            backoff = float(self._rng.integers(1, 33)) * config.csma_slot_s
            fabric.schedule(backoff, _Retry(fabric, sender_id, frame, attempt + 1))
            return None
        nbytes = len(frame) + config.header_bytes
        sender.energy.charge_tx(nbytes)
        trace = net.trace
        trace.count("net.frames_sent")
        trace.count("net.bytes_sent", nbytes)

        for monitor in self.monitors:
            monitor(now, sender_id, frame)

        arrival = now + config.propagation_delay_s + config.airtime(len(frame))
        neighbors = net.adjacency(sender_id)
        if csma:
            # The carrier is sensed busy at the sender and at every node in
            # range until the frame finishes.
            for nid in (sender_id, *neighbors):
                self._carrier_until[nid] = max(self._carrier_until.get(nid, 0.0), arrival)
        receivers = [rid for rid in neighbors if nodes[rid].alive]
        if config.model_collisions:
            receivers = [rid for rid in receivers if self._survives(rid, now, arrival)]
        return arrival, receivers

    def _survives(self, receiver_id: int, now: float, arrival: float) -> bool:
        """Collision check for one alive receiver of a frame."""
        if now < self._rx_busy_until.get(receiver_id, -1.0):
            # Receiver is mid-reception of another frame: the new
            # frame is destroyed (we keep the earlier one, modeling
            # capture of the stronger first arrival).
            self._network.trace.count("net.frames_collided")
            return False
        self._rx_busy_until[receiver_id] = arrival
        return True

    def deliver(
        self,
        endpoints: "Mapping[int, ReceiveEndpoint]",
        receivers: list[int],
        sender_id: int,
        frame: bytes,
        inject: "Callable[[ReceiveEndpoint, int, bytes, Any], None] | None" = None,
    ) -> None:
        """Hand ``frame`` to each receiver still alive at arrival.

        ``endpoints`` are the fabric's registered receive endpoints by
        node id. Each reception's energy is charged before the receiver
        handles it, by ``inject(endpoint, sender_id, frame, reception)``
        in place of ``receive`` when given. A frame whose type has a
        registered reception (:attr:`receptions`) is received in one
        shared pass (``reception``; None for other frames). The
        receptions (before ``inject``) are counted in
        ``net.frames_delivered``.
        """
        nodes = self._network.nodes
        nbytes = len(frame) + self.config.header_bytes
        delivered = 0
        reception = None
        if frame:
            factory = self.receptions.get(frame[0])
            if factory is not None:
                network = self._network
                reception = factory(frame, network.transport.now, network.trace)
        try:
            for receiver_id in receivers:
                endpoint = endpoints[receiver_id]
                if not endpoint.alive:
                    continue
                nodes[receiver_id].energy.charge_rx(nbytes)
                delivered += 1
                if inject is None:
                    endpoint.receive(sender_id, frame, reception)
                else:
                    inject(endpoint, sender_id, frame, reception)
        finally:
            if reception is not None:
                reception.close()
        if delivered:
            self._network.trace.count("net.frames_delivered", delivered)


class _Retry:
    """Bound CSMA retransmission event."""

    __slots__ = ("fabric", "sender_id", "frame", "attempt")

    def __init__(self, fabric: "LoopbackTransport", sender_id: int, frame: bytes, attempt: int):
        self.fabric = fabric
        self.sender_id = sender_id
        self.frame = frame
        self.attempt = attempt

    def __call__(self) -> None:
        self.fabric.broadcast(self.sender_id, self.frame, _attempt=self.attempt)
