"""Region-sharded multi-process runtime for paper-scale deployments.

A single-process :class:`~repro.sim.network.Network` runs all agents,
transport and telemetry under one GIL; at the paper's deployment
sizes (2,500–3,600 nodes) the per-delivery AEAD work saturates that one
core. This package carves the field into contiguous regions (one worker
process each, :mod:`~repro.runtime.shard.partition`), carries cross-region
unit-disk links over a local socket interconnect in the UDP transport's
frame format (:mod:`~repro.runtime.shard.wire`), and keeps the global
event order with conservative lookahead windows derived from the radio
model (:mod:`~repro.runtime.shard.coordinator`). Same seed, same cluster
assignment as the single-process runtime — pinned by the parity tests and
documented in docs/RUNTIME.md.

Entry point: :func:`run_sharded_setup` (CLI: ``repro run-live --shards N``).
"""

from repro.runtime.shard.coordinator import ShardedSetupResult, run_sharded_setup
from repro.runtime.shard.partition import ShardPlan, partition_network
from repro.runtime.shard.transport import ShardTransport
from repro.runtime.transport import NullTransport
from repro.runtime.shard.worker import build_shard_world

__all__ = [
    "NullTransport",
    "ShardPlan",
    "ShardTransport",
    "ShardedSetupResult",
    "build_shard_world",
    "partition_network",
    "run_sharded_setup",
]
