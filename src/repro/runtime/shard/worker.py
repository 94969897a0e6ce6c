"""The shard worker process: one region's nodes on a local event fabric.

Each worker rebuilds the **full** network deterministically from the
shared seed (named RNG streams make this cheap to reason about: the
``deployment`` stream yields the identical topology everywhere), then
recomputes the same :class:`~repro.runtime.shard.partition.ShardPlan` the
coordinator did. It builds a :class:`~repro.sim.network.Network` that
hosts its own region's runtimes on a
:class:`~repro.runtime.shard.transport.ShardTransport` and every foreign
runtime on a :class:`~repro.runtime.transport.NullTransport` — so
:func:`repro.protocol.setup.provision` and ``start_setup`` run over *all*
agents in global id order, consuming the shared ``keys`` and ``timers``
RNG streams exactly as the single-process runtime does. That stream
parity is what makes the sharded run reproduce the unsharded cluster
assignment (see docs/RUNTIME.md for the full equivalence argument).

After the start phase the worker serves the coordinator's window loop:
inject ingress frames (sorted by arrival instant and sender id, so heap
tie-breaking is deterministic regardless of socket timing), execute one
window, return egress frames plus the next local event time. On FINISH
it assigns the routing gradient to its local agents and reports local
cluster state and its telemetry registry snapshot for the merge.
"""

from __future__ import annotations

import socket
from typing import TYPE_CHECKING

from repro.sim.network import BS_ID, Network
from repro.sim.radio import RadioConfig
from repro.runtime.shard.partition import ShardPlan, partition_network
from repro.runtime.shard.transport import ShardTransport
from repro.runtime.shard.wire import (
    MSG_DONE,
    MSG_FINISH,
    MSG_HELLO,
    MSG_REPORT,
    MSG_RUN,
    MSG_STOP,
    pack_done,
    pack_hello,
    pack_report,
    recv_message,
    send_message,
    unpack_run,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.config import ProtocolConfig
    from repro.protocol.setup import DeployedProtocol

__all__ = ["ShardWorld", "build_shard_world", "worker_main"]

#: Set by the coordinator immediately before forking workers so children
#: inherit the already-built (network, plan) via copy-on-write instead of
#: rebuilding them from the seed; a worker reuses the network's deployment.
#: Keyed by the full build spec; a spawn start method re-imports this
#: module and sees ``None``, which falls back to the deterministic rebuild
#: path. Tuple shape: (spec, network, plan).
_FORK_PREBUILT: tuple[tuple, Network, ShardPlan] | None = None


class ShardWorld:
    """Everything one worker owns: plan, fabric, network and protocol."""

    def __init__(
        self,
        shard: int,
        plan: ShardPlan,
        network: Network,
        deployed: "DeployedProtocol",
    ) -> None:
        """Bundle the built state (see :func:`build_shard_world`)."""
        self.shard = shard
        self.plan = plan
        self.network = network
        self.deployed = deployed

    @property
    def transport(self) -> ShardTransport:
        """The shard's event fabric."""
        transport = self.network.transport
        assert isinstance(transport, ShardTransport)
        return transport

    def local_sensor_ids(self) -> list[int]:
        """Sorted sensor ids this shard owns."""
        return [nid for nid in self.plan.members[self.shard] if nid != BS_ID]

    def assign_local_gradient(self) -> None:
        """Give local agents their hop distance to the base station."""
        hops = self.network.hop_gradient()
        for nid in self.local_sensor_ids():
            self.deployed.agents[nid].state.hops_to_bs = hops[nid]

    def report(self) -> dict:
        """The per-shard completion report the coordinator merges."""
        transport = self.transport
        cids = {}
        keys = {}
        for nid in self.local_sensor_ids():
            state = self.deployed.agents[nid].state
            cids[str(nid)] = state.cid
            keys[str(nid)] = state.stored_key_count()
        return {
            "shard": self.shard,
            "local_nodes": len(cids),
            "cids": cids,
            "keys": keys,
            "registry": transport.trace.telemetry.registry.snapshot(),
            "events_executed": transport.events_executed,
            "cross_frames_in": transport.cross_frames_in,
            "cross_frames_out": transport.cross_frames_out,
        }


def build_shard_world(
    shard: int,
    n: int,
    density: float,
    seed: int,
    num_shards: int,
    config: "ProtocolConfig | None" = None,
    radio_config: RadioConfig | None = None,
) -> ShardWorld:
    """Deterministically rebuild one shard's world from the shared seed.

    Runs provisioning and ``start_setup`` over **all** agents in global
    id order (foreign agents on the null fabric), so the shared RNG
    streams advance identically to the single-process runtime.
    """
    from repro.protocol.setup import provision  # local import: avoid cycle

    spec = (n, density, seed, num_shards, radio_config)
    if _FORK_PREBUILT is not None and _FORK_PREBUILT[0] == spec:
        _, full, plan = _FORK_PREBUILT
    else:
        full = Network.build(n, density, seed=seed, radio_config=radio_config)
        plan = partition_network(full, num_shards)
    local_ids = plan.local_ids(shard)

    border: set[int] = set()
    ingress: dict[int, list[int]] = {}
    for nid in local_ids:
        for peer in full.adjacency(nid):
            if peer not in local_ids:
                border.add(nid)
                # The reverse link makes ``peer`` a remote sender whose
                # broadcasts this shard must deliver locally.
                ingress.setdefault(peer, []).append(nid)
    for receivers in ingress.values():
        receivers.sort()

    transport = ShardTransport(local_ids, frozenset(border), ingress)
    network = Network(
        full.deployment,
        seed=seed,
        radio_config=radio_config,
        transport=transport,
        local_ids=local_ids,
    )
    deployed = provision(network, config)
    for agent in deployed.agents.values():
        agent.start_setup()
    return ShardWorld(shard, plan, network, deployed)


def serve(world: ShardWorld, sock: socket.socket) -> None:
    """Run the coordinator's window loop over an open interconnect socket."""
    transport = world.transport
    send_message(sock, MSG_HELLO, pack_hello(world.shard))
    while True:
        msg_type, payload = recv_message(sock)
        if msg_type == MSG_RUN:
            limit, inclusive, frames = unpack_run(payload)
            # Deterministic ingress order: heap sequence numbers are
            # assigned at push, so sort by (arrival-relevant) keys
            # before injecting. Emission order per sender is preserved
            # by sort stability.
            frames.sort(key=lambda f: (f[0], f[1]))
            for emit_time, sender_id, frame in frames:
                transport.inject(emit_time, sender_id, frame)
            next_time = transport.run_window(limit, inclusive)
            send_message(
                sock,
                MSG_DONE,
                pack_done(next_time, transport.events_executed, transport.drain_outbox()),
            )
        elif msg_type == MSG_FINISH:
            world.assign_local_gradient()
            send_message(sock, MSG_REPORT, pack_report(world.report()))
        elif msg_type == MSG_STOP:
            return
        else:
            raise ValueError(f"unexpected interconnect message type {msg_type}")


def worker_main(
    shard: int,
    port: int,
    n: int,
    density: float,
    seed: int,
    num_shards: int,
    config: "ProtocolConfig | None",
    radio_config: RadioConfig | None,
) -> None:
    """Process entry point: build the shard world, then serve windows."""
    world = build_shard_world(
        shard, n, density, seed, num_shards, config=config, radio_config=radio_config
    )
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        serve(world, sock)
