"""The node: one deployed sensor (or the base station) on a transport.

:class:`NodeRuntime` exposes the exact node surface a
:class:`~repro.protocol.agent.ProtocolAgent` (or the base-station agent,
a joining-node agent, or an adversarial implant) touches — ``id``,
``alive``, ``broadcast``, ``schedule``, ``now``, ``trace``, ``die`` — and
maps it onto a :class:`~repro.runtime.transport.Transport`. It also owns
the node's battery (:class:`~repro.sim.energy.EnergyMeter`), which the
radio link model charges. Hosting an agent is one assignment
(``runtime.app = agent``); the agent cannot tell whether its frames travel
through the in-process fabric or real UDP sockets.

The link-layer ``sender_id`` passed to applications mirrors the
unauthenticated source field of a real radio header: adversaries can and
do spoof it, so protocol logic must never trust it for security
decisions (the protocol authenticates identities cryptographically
inside the payload instead).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.sim.energy import EnergyMeter

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.transport import TimerHandle, Transport
    from repro.sim.trace import Trace

__all__ = ["NodeRuntime"]


class NodeRuntime:
    """One protocol node hosted on a transport."""

    def __init__(
        self,
        transport: "Transport",
        node_id: int,
        position: np.ndarray,
        energy: EnergyMeter,
    ) -> None:
        self.transport = transport
        self.id = node_id
        self.position = position
        self.energy = energy
        self.alive = True
        #: The hosted application (protocol agent, BS agent, joiner, ...).
        self.app: Any = None
        #: Passive receive taps, called after the app handles each frame.
        #: The gateway query plane uses one on the base-station runtime to
        #: track mesh ingress liveness without touching protocol code.
        self.receive_listeners: list[Callable[[int, bytes], None]] = []
        self.frames_sent = 0
        self.frames_received = 0
        transport.register(self)

    # -- the node surface agents program against ---------------------------

    def broadcast(self, frame: bytes) -> None:
        """Transmit one frame to all transport-level neighbors."""
        if not self.alive:
            return
        self.frames_sent += 1
        self.transport.broadcast(self.id, frame)

    def schedule(self, delay: float, callback: Callable[[], Any]) -> "TimerHandle":
        """Arm a timer on the transport's clock."""
        return self.transport.schedule(delay, callback)

    def now(self) -> float:
        """Current protocol time."""
        return self.transport.now

    @property
    def trace(self) -> "Trace":
        """The deployment-wide counter/event trace."""
        return self.transport.trace

    def die(self) -> None:
        """Remove the node from the network (battery death, capture, leave)."""
        self.alive = False
        self._notify_app("on_offline")

    def offline(self) -> None:
        """Crash hook: take the node down, keeping its state for a restart.

        While offline the runtime neither transmits nor receives.
        Distinct from :meth:`die` only in intent — fault plans
        (:mod:`repro.runtime.faults`) pair it with :meth:`online` to
        model a reboot rather than a permanent death. The hosted app's
        ``on_offline`` hook (if it defines one) runs after the flip, so
        pending soft state — custody retransmit timers above all — is
        cancelled instead of surviving the crash and firing into a
        restarted (possibly key-refreshed) epoch.
        """
        self.alive = False
        self._notify_app("on_offline")

    def online(self) -> None:
        """Restart hook: bring a crashed node back up, state intact.

        "State intact" means keys and protocol state (a reboot, not a
        reprovision); volatile queues were flushed by :meth:`offline`'s
        ``on_offline`` hook. The app's ``on_online`` hook (if any) runs
        after the flip.
        """
        self.alive = True
        self._notify_app("on_online")

    def _notify_app(self, hook_name: str) -> None:
        """Invoke the hosted app's lifecycle hook if it defines one."""
        hook = getattr(self.app, hook_name, None)
        if callable(hook):
            hook()

    # -- transport delivery entry point -------------------------------------

    def add_receive_listener(self, listener: Callable[[int, bytes], None]) -> None:
        """Register a passive tap on this runtime's delivered frames.

        Listeners run after the hosted app's ``on_frame`` and must not
        raise; they see the raw (still sealed) frame, so nothing secret
        leaks through this hook.
        """
        self.receive_listeners.append(listener)

    def receive(self, sender_id: int, frame: bytes, reception: Any = None) -> None:
        """Deliver one frame up to the hosted application.

        A node whose battery has run out dies on its next reception.
        ``reception`` is the shared pass of a fan-out that hands one frame
        to all of its receivers (see :attr:`repro.sim.radio.Radio.receptions`);
        when given, it hands the frame to the app (``reception.deliver``)
        in place of ``app.on_frame``.
        """
        if not self.alive:
            return
        self.frames_received += 1
        if self.energy.depleted:
            self.die()
            return
        if self.app is not None:
            if reception is None:
                self.app.on_frame(sender_id, frame)
            else:
                reception.deliver(self.app, sender_id)
        for listener in self.receive_listeners:
            listener(sender_id, frame)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"NodeRuntime(id={self.id}, {state}, transport={self.transport.name})"
