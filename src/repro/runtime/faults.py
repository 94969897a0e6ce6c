"""Deterministic fault injection for any transport.

The radio link model (:mod:`repro.sim.radio`) covers airtime, energy,
collisions and CSMA on the in-process fabric, and UDP is an ideal MAC:
neither loses, duplicates, reorders, delays or corrupts a frame, crashes
a node or partitions the field. This module adds those with one fault
vocabulary shared by every backend:

* :class:`FaultPlan` — a *seeded*, declarative description of what goes
  wrong: global and per-link drop / duplicate / reorder / corrupt /
  delay rates, node crash-and-restart schedules, and network partitions;
* :class:`FaultInjectingTransport` — a decorator that wraps **any**
  :class:`~repro.runtime.transport.Transport` (loopback, UDP) and
  applies the plan on the delivery path, so the protocol under test
  cannot tell injected faults from real ones.

One method, :meth:`FaultInjectingTransport.inject`, decides each
delivery: loopback's fan-out loop calls it directly, and UDP through a
per-node :class:`_FaultedEndpoint`. On loopback an immediate, uncorrupted
delivery joins the fan-out's shared reception pass like any clean one;
a corrupted, delayed or duplicated copy is received on its own.

Fault decisions are drawn from a ``numpy`` generator seeded by the plan,
so on the deterministic loopback fabric a chaos run is exactly
reproducible — the property the ``repro chaos`` CLI and the chaos-smoke
CI job rely on. The generator is read in blocks (:class:`BlockDraws`).

Semantics note: ``drop`` is the only link-loss model, evaluated once
per *(sender, receiver)* delivery attempt at delivery time. On loopback
that is after the radio charged the reception's energy and booked it for
collision checks, so a dropped frame still costs rx energy and can still
collide with a later one.

Every injected fault is counted in the deployment's trace under
``fault.*`` (see docs/TELEMETRY.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.runtime.loopback import LoopbackTransport
from repro.runtime.transport import ReceiveEndpoint, TimerHandle, Transport
from repro.util.validate import check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = [
    "LinkFaults",
    "CrashEvent",
    "Partition",
    "FaultPlan",
    "FaultInjectingTransport",
]


@runtime_checkable
class CrashableEndpoint(Protocol):
    """Endpoint a crash schedule can take down and bring back.

    :class:`~repro.runtime.node.NodeRuntime` implements this surface
    (``offline`` / ``online``); an endpoint without it cannot be
    crashed by a plan.
    """

    def offline(self) -> None:  # pragma: no cover - protocol stub
        """Take the endpoint down (stops receiving and transmitting)."""
        ...

    def online(self) -> None:  # pragma: no cover - protocol stub
        """Bring the endpoint back up."""
        ...


@dataclass(frozen=True)
class LinkFaults:
    """Per-delivery fault rates for one link (or the global default).

    All rates are independent probabilities evaluated per *(sender,
    receiver)* delivery attempt. ``delay_jitter_s`` adds a uniform
    extra delivery delay to every frame on the link (0 disables).
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    delay_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        check_probability("drop", self.drop)
        check_probability("duplicate", self.duplicate)
        check_probability("reorder", self.reorder)
        check_probability("corrupt", self.corrupt)
        if self.delay_jitter_s < 0:
            raise ValueError("delay_jitter_s must be >= 0")

    @cached_property
    def rates(self) -> tuple[float, float, float, float, float]:
        """``(drop, duplicate, reorder, corrupt, delay_jitter_s)``, built once."""
        return (self.drop, self.duplicate, self.reorder, self.corrupt, self.delay_jitter_s)

    @cached_property
    def is_noop(self) -> bool:
        """True when these rates change nothing at all (computed once)."""
        return not any(self.rates)


@dataclass(frozen=True)
class CrashEvent:
    """Take node ``node_id`` offline at ``at_s`` (protocol time).

    With ``restart_at_s`` set the node comes back at that time (state
    intact — a reboot, not a reprovision); ``None`` means a permanent
    crash.
    """

    node_id: int
    at_s: float
    restart_at_s: float | None = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.restart_at_s is not None and self.restart_at_s <= self.at_s:
            raise ValueError("restart_at_s must be after at_s")


@dataclass(frozen=True)
class Partition:
    """Cut ``nodes`` off from the rest of the network for a time window.

    While ``start_s <= now < end_s`` no frame crosses the island
    boundary in either direction; traffic inside the island (and among
    the nodes outside it) is unaffected.
    """

    nodes: frozenset[int]
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        if self.end_s <= self.start_s:
            raise ValueError("end_s must be after start_s")

    def severs(self, sender_id: int, receiver_id: int, now: float) -> bool:
        """Whether this partition blocks ``sender -> receiver`` at ``now``."""
        if not (self.start_s <= now < self.end_s):
            return False
        return (sender_id in self.nodes) != (receiver_id in self.nodes)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative fault scenario.

    ``defaults`` applies to every link; ``per_link`` overrides whole
    links by ``(sender_id, receiver_id)``. Crash schedules and
    partitions are absolute protocol-time windows. Two plans with the
    same fields and seed inject byte-identical faults on a deterministic
    transport.
    """

    seed: int = 0
    defaults: LinkFaults = field(default_factory=LinkFaults)
    per_link: Mapping[tuple[int, int], LinkFaults] = field(default_factory=dict)
    crashes: tuple[CrashEvent, ...] = ()
    partitions: tuple[Partition, ...] = ()
    #: A duplicated frame's second copy lands uniformly within this window.
    duplicate_window_s: float = 0.1
    #: A reordered frame is held back uniformly within this window, letting
    #: later traffic overtake it.
    reorder_window_s: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_link", dict(self.per_link))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if self.duplicate_window_s <= 0:
            raise ValueError("duplicate_window_s must be > 0")
        if self.reorder_window_s <= 0:
            raise ValueError("reorder_window_s must be > 0")

    def link(self, sender_id: int, receiver_id: int) -> LinkFaults:
        """The fault rates in force on ``sender -> receiver``."""
        return self.per_link.get((sender_id, receiver_id), self.defaults)

    def severed(self, sender_id: int, receiver_id: int, now: float) -> bool:
        """Whether any partition blocks this delivery at ``now``."""
        return any(p.severs(sender_id, receiver_id, now) for p in self.partitions)

    @property
    def is_noop(self) -> bool:
        """True when the plan injects nothing: wrapping with it must be a
        byte-identical passthrough (pinned by the parity tests)."""
        return (
            self.defaults.is_noop
            and all(lf.is_noop for lf in self.per_link.values())
            and not self.crashes
            and not self.partitions
        )


class BlockDraws:
    """A numpy ``Generator`` read ``block`` values at a time.

    Each method returns exactly what the scalar ``rng`` call it is named
    after would, in order; numpy's ``uniform(0, w)`` is ``w * random()``.
    :meth:`integers` first rewinds the generator to the consumed values.
    """

    __slots__ = ("rng", "block", "_values", "_pos", "_state")

    def __init__(self, rng: np.random.Generator, block: int = 256) -> None:
        """Read ``rng`` (not copied: nothing else may draw from it)."""
        self.rng = rng
        self.block = block
        self._values: list[float] = []
        self._pos = 0
        # Generator state before the current block (None: none held).
        self._state: Mapping[str, Any] | None = None

    def random(self) -> float:
        """The next ``rng.random()`` value."""
        pos = self._pos
        values = self._values
        if pos == len(values):
            self._state = self.rng.bit_generator.state
            values = self._values = self.rng.random(self.block).tolist()
            pos = 0
        self._pos = pos + 1
        return values[pos]

    def integers(self, low: int, high: int) -> int:
        """The next ``rng.integers(low, high)`` value."""
        state = self._state
        if state is not None:
            bit_generator = self.rng.bit_generator
            bit_generator.state = state
            bit_generator.advance(self._pos)
            if state["has_uint32"]:
                # advance() drops the half of a 64-bit draw that an
                # earlier integers() left buffered; the block never
                # touched it, so put it back.
                bit_generator.state = {
                    **bit_generator.state,
                    "has_uint32": state["has_uint32"],
                    "uinteger": state["uinteger"],
                }
            self._state = None
            self._values = []
            self._pos = 0
        return int(self.rng.integers(low, high))


class FaultInjectingTransport(Transport):
    """Decorator applying a :class:`FaultPlan` to any inner transport.

    :meth:`inject` applies the plan's link faults (drop / duplicate /
    reorder / corrupt / delay) to each delivery before it reaches the
    node; crash and restart timers are armed on the inner transport's
    clock when :meth:`run` is first called. Clock, timers and the
    broadcast path are forwarded verbatim.
    """

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        """Wrap ``inner``; its trace is shared."""
        super().__init__(trace=inner.trace)
        self.inner = inner
        #: The plan in force; may be reassigned mid-run.
        self.plan = plan
        self.name = f"{inner.name}+faults"
        self._draws = BlockDraws(np.random.default_rng(plan.seed))
        self._nodes: dict[int, ReceiveEndpoint] = {}
        self._crashes_armed = False
        if isinstance(inner, LoopbackTransport):
            # Loopback decides each delivery in its fan-out loop.
            inner.inject = self.inject

    # -- Transport interface -------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Bind the inner fabric to ``network``."""
        self.inner.attach(network)

    def register(self, node: ReceiveEndpoint) -> None:
        """Attach ``node``: bare on loopback, else behind a fault shim."""
        self._nodes[node.id] = node
        bare = isinstance(self.inner, LoopbackTransport)
        self.inner.register(node if bare else _FaultedEndpoint(self, node))

    @property
    def now(self) -> float:
        """The inner transport's protocol clock."""
        return self.inner.now

    def schedule(self, delay: float, callback: Callable[[], Any]) -> TimerHandle:
        """Arm a timer on the inner transport's clock."""
        return self.inner.schedule(delay, callback)

    def broadcast(self, sender_id: int, frame: bytes) -> None:
        """Transmit on the inner fabric (faults apply at delivery)."""
        self.inner.broadcast(sender_id, frame)

    def run(self, until: float | None = None) -> float:
        """Arm the crash schedule (once), then drive the inner transport."""
        self._arm_crashes()
        return self.inner.run(until)

    # -- fault application ---------------------------------------------------

    def _arm_crashes(self) -> None:
        if self._crashes_armed:
            return
        self._crashes_armed = True
        now = self.inner.now
        for crash in self.plan.crashes:
            self.inner.schedule(
                max(0.0, crash.at_s - now), _CrashFire(self, crash.node_id, False)
            )
            if crash.restart_at_s is not None:
                self.inner.schedule(
                    max(0.0, crash.restart_at_s - now),
                    _CrashFire(self, crash.node_id, True),
                )

    def _fire_crash(self, node_id: int, restart: bool) -> None:
        node = self._nodes.get(node_id)
        if node is None:
            return
        if not isinstance(node, CrashableEndpoint):
            raise TypeError(
                f"crash schedule targets node {node_id}, but its endpoint "
                f"({type(node).__name__}) has no offline/online hooks"
            )
        if restart:
            node.online()
            self.trace.count("fault.restart")
        else:
            node.offline()
            self.trace.count("fault.crash")

    def inject(
        self, node: ReceiveEndpoint, sender_id: int, frame: bytes, reception: Any = None
    ) -> None:
        """Apply the plan to one delivery, then hand it to the real node.

        ``reception`` is the loopback fan-out's shared reception pass,
        if any: an immediate, uncorrupted delivery is handed on through
        it, and a corrupted, delayed or duplicated copy without it.
        """
        plan = self.plan
        if plan.partitions and plan.severed(sender_id, node.id, self.inner.now):
            self.trace.count("fault.partition_drop")
            return
        link = plan.link(sender_id, node.id) if plan.per_link else plan.defaults
        if link.is_noop:
            self._deliver(node, sender_id, frame, reception)
            return
        # ``w * random()`` below is numpy's ``uniform(0, w)``, value for value.
        random = self._draws.random
        drop, duplicate, reorder, corrupt, jitter = link.rates
        if drop > 0.0 and random() < drop:
            self.trace.count("fault.drop")
            return
        if corrupt > 0.0 and random() < corrupt:
            frame = self._corrupt(frame)
            reception = None
            self.trace.count("fault.corrupt")
        if duplicate > 0.0 and random() < duplicate:
            copy_delay = plan.duplicate_window_s * random()
            self.inner.schedule(copy_delay, _LateDelivery(self, node, sender_id, frame))
            self.trace.count("fault.duplicate")
        delay = 0.0
        if reorder > 0.0 and random() < reorder:
            delay += plan.reorder_window_s * random()
            self.trace.count("fault.reorder")
        if jitter > 0.0:
            delay += jitter * random()
            self.trace.count("fault.delay")
        if delay > 0.0:
            self.inner.schedule(delay, _LateDelivery(self, node, sender_id, frame))
        else:
            self._deliver(node, sender_id, frame, reception)

    def _deliver(
        self, node: ReceiveEndpoint, sender_id: int, frame: bytes, reception: Any = None
    ) -> None:
        if not node.alive:
            return
        node.receive(sender_id, frame, reception)

    def _corrupt(self, frame: bytes) -> bytes:
        """Flip one random byte (guaranteed to differ from the original)."""
        if not frame:
            return frame
        index = self._draws.integers(0, len(frame))
        flipped = frame[index] ^ self._draws.integers(1, 256)
        return frame[:index] + bytes([flipped]) + frame[index + 1 :]


class _FaultedEndpoint:
    """Registered in place of the real endpoint on fabrics without a
    fan-out loop (UDP); routes each delivery, one datagram at a time,
    through the fault plan. Exposes the full ``ReceiveEndpoint`` surface,
    so inner transports cannot tell it from a real node runtime."""

    __slots__ = ("transport", "node", "id")

    def __init__(self, transport: FaultInjectingTransport, node: ReceiveEndpoint) -> None:
        self.transport = transport
        self.node = node
        self.id = node.id

    @property
    def alive(self) -> bool:
        """Liveness of the real endpoint (crashes read through)."""
        return self.node.alive

    def receive(self, sender_id: int, frame: bytes, reception: Any = None) -> None:
        """Delivery entry point: apply the fault plan, then forward."""
        self.transport.inject(self.node, sender_id, frame, reception)


class _CrashFire:
    """Bound crash/restart timer event."""

    __slots__ = ("transport", "node_id", "restart")

    def __init__(self, transport: FaultInjectingTransport, node_id: int, restart: bool) -> None:
        self.transport = transport
        self.node_id = node_id
        self.restart = restart

    def __call__(self) -> None:
        self.transport._fire_crash(self.node_id, self.restart)


class _LateDelivery:
    """Bound delayed/duplicated delivery event."""

    __slots__ = ("transport", "node", "sender_id", "frame")

    def __init__(
        self,
        transport: FaultInjectingTransport,
        node: ReceiveEndpoint,
        sender_id: int,
        frame: bytes,
    ) -> None:
        self.transport = transport
        self.node = node
        self.sender_id = sender_id
        self.frame = frame

    def __call__(self) -> None:
        self.transport._deliver(self.node, self.sender_id, self.frame)
