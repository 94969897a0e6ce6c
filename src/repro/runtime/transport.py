"""The transport abstraction: clock + timers + broadcast, pluggable.

A :class:`Transport` is everything a protocol node needs from its
environment, reduced to four operations:

* ``now`` — the current protocol time in seconds;
* ``schedule(delay, callback)`` — a cancellable timer on that clock;
* ``broadcast(sender_id, frame)`` — one local broadcast to the sender's
  radio neighbors;
* ``register(node)`` — attach a receive endpoint (anything with ``id``,
  ``alive`` and ``receive(sender_id, frame)``).

The in-process loopback fabric and the real-socket UDP backend both
implement this surface, so the *same*
:class:`~repro.protocol.agent.ProtocolAgent` code — unmodified — runs on
any of them. A :class:`~repro.sim.network.Network` binds its fabric with
:meth:`Transport.attach`; fabrics read the sender's neighbors from that
network on every send, so topology changes need no push.

``run(until)`` drives the transport's clock from the outside. For the
loopback backend this executes queued events; for UDP it pumps the
asyncio loop in real (scaled) time while datagrams and timers fire on
their own.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["TimerHandle", "ReceiveEndpoint", "Transport"]


@runtime_checkable
class TimerHandle(Protocol):
    """Cancellable reference to a scheduled timer."""

    def cancel(self) -> None:  # pragma: no cover - protocol stub
        """Disarm the timer; the callback will not fire."""
        ...


@runtime_checkable
class ReceiveEndpoint(Protocol):
    """What a transport delivers frames to (a node runtime or a fault shim)."""

    id: int
    alive: bool

    def receive(
        self, sender_id: int, frame: bytes, reception: Any = None
    ) -> None:  # pragma: no cover
        """Deliver one frame (``sender_id`` is the untrusted link source).

        ``reception`` is the loopback fan-out's shared reception pass for
        the frame, or None.
        """
        ...


class Transport(ABC):
    """Abstract clock + timer + broadcast fabric for protocol nodes."""

    #: Human-readable backend name ("loopback" or "udp").
    name: str = "abstract"

    def __init__(self, trace: Trace | None = None) -> None:
        """``trace`` shares an existing counter/event store; omitted, the
        transport owns a fresh one. A network built on this transport
        uses the transport's store as its own."""
        self.trace = trace if trace is not None else Trace()

    # -- node attachment ---------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Bind the network whose topology (and link model) this fabric
        carries. Called once by :class:`~repro.sim.network.Network`."""

    @abstractmethod
    def register(self, node: ReceiveEndpoint) -> None:
        """Attach ``node`` as the receive endpoint for its id."""

    # -- clock and timers --------------------------------------------------

    @property
    @abstractmethod
    def now(self) -> float:
        """Current protocol time in seconds."""

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[], Any]) -> TimerHandle:
        """Arm ``callback`` to fire ``delay`` protocol-seconds from now."""

    # -- data path ---------------------------------------------------------

    @abstractmethod
    def broadcast(self, sender_id: int, frame: bytes) -> None:
        """One local broadcast from ``sender_id`` to its neighbors."""

    # -- driving -----------------------------------------------------------

    @abstractmethod
    def run(self, until: float | None = None) -> float:
        """Advance the transport's clock (to ``until`` if given).

        Returns the protocol time reached. Blocking; re-callable — state
        (pending timers, the clock) persists across calls.
        """
