"""The shard-local event fabric.

:class:`ShardTransport` is a :class:`~repro.runtime.loopback.LoopbackTransport`
whose fan-outs keep only the shard's *local* receivers; a broadcast from
a border node additionally lands in :attr:`ShardTransport.outbox` for
the coordinator to route across the interconnect, and frames arriving
from other shards are injected at their model-exact arrival instant.
:meth:`ShardTransport.run_window` executes events up to a window boundary
(exclusive or inclusive) on the loopback run loop — the primitive the
conservative window synchronization in
:mod:`repro.runtime.shard.coordinator` is built from.

The *foreign* node runtimes a worker builds purely for determinism live
on a :class:`~repro.runtime.transport.NullTransport`: provisioning and
``start_setup`` must consume the shared ``keys``/``timers`` RNG streams
for every node in global id order — exactly as the single-process
runtime does — or local timer draws would diverge from the unsharded
run. Foreign agents therefore get constructed and started for real, but
their timers and broadcasts are discarded; their behaviour is computed
by whichever shard owns them.
"""

from __future__ import annotations

import math

from repro.sim.trace import Trace
from repro.runtime.loopback import LoopbackTransport, _FanoutDelivery

__all__ = ["ShardTransport"]


class ShardTransport(LoopbackTransport):
    """Loopback fabric for one shard, with a cross-shard egress/ingress edge."""

    name = "shard"

    def __init__(
        self,
        local_ids: frozenset[int],
        border_senders: frozenset[int],
        ingress_neighbors: dict[int, list[int]],
        trace: Trace | None = None,
    ) -> None:
        """``local_ids`` are the node ids this shard hosts;
        ``border_senders`` are local ids with at least one remote
        neighbor; ``ingress_neighbors`` maps each remote border sender to
        its receivers inside this shard."""
        super().__init__(trace=trace)
        self._local = local_ids
        self._border = border_senders
        self._ingress = ingress_neighbors
        #: Frames awaiting coordinator routing: (emit_time, sender, payload).
        self.outbox: list[tuple[float, int, bytes]] = []
        self.cross_frames_in = 0
        self.cross_frames_out = 0

    def _fan_out(
        self, sender_id: int, frame: bytes, arrival: float, receivers: list[int]
    ) -> None:
        """Local fan-out plus egress capture for border senders."""
        local = self._local
        super()._fan_out(
            sender_id, frame, arrival, [nid for nid in receivers if nid in local]
        )
        if sender_id in self._border:
            self.outbox.append((self._now, sender_id, frame))
            self.cross_frames_out += 1

    def inject(self, emit_time: float, sender_id: int, frame: bytes) -> None:
        """Deliver a remote broadcast to its local receivers.

        The arrival instant is recomputed from the shared radio model
        (emit + propagation + airtime), so it is identical to what the
        single-process fabric would have scheduled. The conservative
        window protocol guarantees ``arrival >= now``.
        """
        receivers = self._ingress.get(sender_id)
        if not receivers:
            return
        assert self.radio is not None
        config = self.radio.config
        arrival = emit_time + config.propagation_delay_s + config.airtime(len(frame))
        if arrival < self._now:
            raise RuntimeError(
                f"cross-shard frame would arrive in the past "
                f"({arrival} < {self._now}): window lookahead violated"
            )
        self.cross_frames_in += 1
        self._events.push(arrival, _FanoutDelivery(self, receivers, sender_id, frame))

    def run_window(self, limit: float, inclusive: bool) -> float:
        """Execute events up to ``limit`` and advance the clock to it.

        ``inclusive`` selects whether events exactly at ``limit`` fire
        (the final window at the protocol deadline) or stay queued (every
        interior window, whose boundary is the lookahead horizon).
        Returns the next pending event time (``inf`` when idle).
        """
        self._run_loop(limit, inclusive)
        next_time = self._events.peek_time()
        return math.inf if next_time is None else next_time

    def drain_outbox(self) -> list[tuple[float, int, bytes]]:
        """Return and clear the pending cross-shard egress frames."""
        out, self.outbox = self.outbox, []
        return out
