"""Real-socket UDP transport.

Every node binds its own datagram socket on ``host`` at
``base_port + node_id``; a broadcast is one ``sendto`` per neighbor in
the attached network's adjacency (the live stand-in for unit-disk radio
range — real sensor deployments configure exactly such a map when they
bridge motes onto IP). Frames are prefixed with the sender's id, the
same untrusted link-layer source field the simulated radio passes up, so
the protocol's "never trust sender_id" rule carries over unchanged.

The protocol clock runs in *scaled real time*: ``time_scale`` protocol
seconds elapse per wall-clock second (default 20x, so the paper's
7-second key setup takes ~0.35 s of wall time). Timers are asyncio
``call_later`` callbacks on that scaled clock. Runs are therefore **not**
bit-deterministic — this backend trades reproducibility for real
networking; the loopback transport is the deterministic twin.

``run(until)`` pumps the asyncio loop until the protocol clock reaches
``until``. Sockets are opened per run and closed afterwards; pending
timers (and the clock) survive across runs, so setup and workload phases
can be driven as separate calls like on every other transport.
"""

from __future__ import annotations

import asyncio
import socket
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.trace import Trace
from repro.runtime.transport import ReceiveEndpoint, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["UdpTimer", "UdpTransport", "decode_datagram", "encode_datagram"]

#: Bytes prepended to each datagram: the (unauthenticated) sender id.
_SENDER_HEADER_LEN = 4


def encode_datagram(sender_id: int, frame: bytes) -> bytes:
    """Wire form of one frame: big-endian sender id, then the payload.

    The sender id is the same *unauthenticated* link-layer source field
    the simulated radio passes up.
    """
    return sender_id.to_bytes(_SENDER_HEADER_LEN, "big") + frame


def decode_datagram(data: bytes) -> tuple[int, bytes] | None:
    """Parse :func:`encode_datagram` output; None if truncated."""
    if len(data) < _SENDER_HEADER_LEN:
        return None
    return int.from_bytes(data[:_SENDER_HEADER_LEN], "big"), data[_SENDER_HEADER_LEN:]


class UdpTimer:
    """Cancellable timer with a protocol-time deadline."""

    __slots__ = ("deadline", "callback", "cancelled", "fired", "_handle")

    def __init__(self, deadline: float, callback: Callable[[], Any]) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._handle: asyncio.TimerHandle | None = None

    def cancel(self) -> None:
        """Disarm the timer (idempotent)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class UdpTransport(Transport):
    """Datagram-socket transport with per-node ports."""

    name = "udp"

    def __init__(
        self,
        base_port: int = 47_000,
        host: str = "127.0.0.1",
        time_scale: float = 10.0,
        recv_buffer_bytes: int = 1 << 20,
        drain_wall_s: float = 2.0,
        trace: Trace | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        if not (0 < base_port < 65_536):
            raise ValueError(f"base_port out of range: {base_port}")
        super().__init__(trace=trace)
        self._network: "Network | None" = None
        self.base_port = base_port
        self.host = host
        self.time_scale = time_scale
        self.recv_buffer_bytes = recv_buffer_bytes
        self.drain_wall_s = drain_wall_s
        self._run_until: float | None = None
        self._nodes: dict[int, ReceiveEndpoint] = {}
        self._timers: list[UdpTimer] = []
        self._endpoints: dict[int, asyncio.DatagramTransport] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wall0 = 0.0
        self._proto0 = 0.0
        self._now = 0.0
        self.send_errors = 0

    def port_of(self, node_id: int) -> int:
        """The UDP port node ``node_id`` listens on."""
        return self.base_port + node_id

    # -- Transport interface -------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Send to ``network``'s unit-disk neighbors."""
        self._network = network

    def register(self, node: ReceiveEndpoint) -> None:
        """Attach ``node``; its socket binds on the next :meth:`run`."""
        if self._endpoints is not None:
            raise RuntimeError("cannot register nodes while the loop is running")
        self._nodes[node.id] = node

    @property
    def now(self) -> float:
        """Protocol time: scaled wall clock while running, frozen between runs."""
        if self._loop is not None:
            return self._proto0 + (self._loop.time() - self._wall0) * self.time_scale
        return self._now

    def schedule(self, delay: float, callback: Callable[[], Any]) -> UdpTimer:
        """Arm ``callback`` on the scaled real-time clock."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        timer = UdpTimer(self.now + delay, callback)
        self._timers.append(timer)
        if self._loop is not None:
            self._arm(timer)
        return timer

    def broadcast(self, sender_id: int, frame: bytes) -> None:
        """One ``sendto`` per neighbor, sender id prefixed in clear."""
        if self._endpoints is None:
            # Called between runs (e.g. a BS revocation queued from the
            # orchestrator): send on the next run's first tick instead.
            self.schedule(0.0, lambda: self.broadcast(sender_id, frame))
            return
        datagram = encode_datagram(sender_id, frame)
        endpoint = self._endpoints.get(sender_id)
        if endpoint is None or endpoint.is_closing():
            self.send_errors += 1
            return
        self.trace.count("net.frames_sent")
        self.trace.count("net.bytes_sent", len(datagram))
        network = self._network
        neighbors = network.adjacency(sender_id) if network is not None else ()
        for receiver_id in neighbors:
            if receiver_id not in self._nodes:
                continue
            try:
                endpoint.sendto(datagram, (self.host, self.port_of(receiver_id)))
            except OSError:
                self.send_errors += 1

    def run(self, until: float | None = None) -> float:
        """Pump the asyncio loop until the protocol clock reaches ``until``."""
        if until is None:
            raise ValueError("UdpTransport.run needs an explicit 'until' time")
        if until <= self._now:
            return self._now
        return asyncio.run(self.run_async(until))

    async def run_async(self, until: float) -> float:
        """Async body of :meth:`run`: bind sockets, pump, drain, close."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._wall0 = loop.time()
        self._proto0 = self._now
        self._run_until = until
        endpoints: dict[int, asyncio.DatagramTransport] = {}
        try:
            for nid, node in sorted(self._nodes.items()):
                transport, _ = await loop.create_datagram_endpoint(
                    lambda n=node: _NodeDatagramProtocol(self, n),
                    local_addr=(self.host, self.port_of(nid)),
                )
                # Broadcast storms (election, flooding forwarders) burst far
                # faster than pure-Python crypto drains them; a roomy kernel
                # buffer absorbs the bursts instead of dropping datagrams.
                sock = transport.get_extra_info("socket")
                if sock is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVBUF, self.recv_buffer_bytes
                    )
                endpoints[nid] = transport
            self._endpoints = endpoints
            for timer in self._timers:
                self._arm(timer)
            while True:
                remaining = (until - self.now) / self.time_scale
                if remaining <= 0:
                    break
                await asyncio.sleep(remaining)
            # Drain phase: when protocol work outpaces the scaled wall
            # clock (pure-Python crypto under a broadcast storm), datagrams
            # are still queued in kernel buffers at the stop time. Keep
            # pumping until deliveries go quiescent (bounded), instead of
            # closing sockets on a backlog.
            drain_deadline = loop.time() + self.drain_wall_s
            counters = self.trace.counters
            last_delivered = -1
            while (
                loop.time() < drain_deadline
                and counters["net.frames_delivered"] != last_delivered
            ):
                last_delivered = counters["net.frames_delivered"]
                await asyncio.sleep(0.01)
        finally:
            self._now = until
            self._run_until = None
            self._endpoints = None
            for timer in self._timers:
                if timer._handle is not None:
                    timer._handle.cancel()
                    timer._handle = None
            self._timers = [
                t for t in self._timers if not t.fired and not t.cancelled
            ]
            for endpoint in endpoints.values():
                endpoint.close()
            self._loop = None
        return self._now

    # -- internals -----------------------------------------------------------

    def _arm(self, timer: UdpTimer) -> None:
        if timer.cancelled or timer.fired:
            return
        if self._run_until is not None and timer.deadline > self._run_until:
            # Beyond this run's stop time: stays pending, armed next run.
            return
        assert self._loop is not None
        wall_delay = max(0.0, timer.deadline - self.now) / self.time_scale
        timer._handle = self._loop.call_later(wall_delay, self._fire, timer)

    def _fire(self, timer: UdpTimer) -> None:
        timer.fired = True
        timer._handle = None
        if not timer.cancelled:
            timer.callback()


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """Receive path of one node's socket."""

    def __init__(self, transport: UdpTransport, node: ReceiveEndpoint) -> None:
        self._transport = transport
        self._node = node

    def datagram_received(self, data: bytes, addr) -> None:
        decoded = decode_datagram(data)
        if decoded is None:
            return
        sender_id, frame = decoded
        self._transport.trace.count("net.frames_delivered")
        self._node.receive(sender_id, frame)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self._transport.send_errors += 1
