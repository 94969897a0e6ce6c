"""Pin every fault kind: a seeded faulted soak must put the same frames on the air.

A seeded n=60 loopback soak with hop ACKs on runs from key setup to the
last retransmission under a ``FaultPlan`` that uses every fault the plan
knows: drop, duplicate, reorder, corrupt and delay jitter by default, a
``per_link`` override on one real link, a partition window and a crash
with restart. A second soak starts under the same plan and swaps in a
different one mid-run through ``transport.plan``. Every ``(time, sender,
frame)`` the radio monitor sees goes into a sha256, and the sorted final
counters into another. Any change to the fault layer that moves one
draw, one timestamp or one counter fails here. A deliberate change to
the fault semantics re-records these digests.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import run_key_setup
from repro.runtime.cluster import build_transport
from repro.runtime.faults import (
    CrashEvent,
    FaultInjectingTransport,
    FaultPlan,
    LinkFaults,
    Partition,
)
from repro.sim.network import Network
from repro.sim.trace import Trace
from repro.workloads import SoakWorkload

N = 60
DENSITY = 10.0
SEED = 5
RATE = 150.0
DURATION_S = 2.0
SETTLE_S = 2.5
#: A real link of the seeded topology, overridden by ``per_link``.
LINK = (3, 4)
#: The protocol time at which the second soak swaps its plan.
SWAP_AT_S = 8.0

PLAN = FaultPlan(
    seed=SEED,
    defaults=LinkFaults(
        drop=0.1, duplicate=0.05, reorder=0.05, corrupt=0.05, delay_jitter_s=0.002
    ),
    per_link={LINK: LinkFaults(drop=0.4, corrupt=0.3)},
    crashes=(CrashEvent(node_id=4, at_s=8.0, restart_at_s=8.8),),
    partitions=(Partition(frozenset({5, 25, 29, 35}), start_s=7.5, end_s=8.5),),
)
#: Swapped in mid-run: new rates, no per-link override, another partition.
SWAPPED = FaultPlan(
    seed=SEED + 1,
    defaults=LinkFaults(drop=0.2, corrupt=0.1, reorder=0.1),
    partitions=(Partition(frozenset({1, 18, 51}), start_s=8.2, end_s=9.0),),
)

#: (wire sha256, counters sha256, frames on the air) per soak.
EXPECTED = {
    "plan": (
        "2403fa262368279fd7732969394221f9e0f28b9c1468e858c543cf0c59c9ba58",
        "90b9f5f8d787ac7e0a8a0c00b5b8198eb96d92660f282e5aed77c857353b2f89",
        2199,
    ),
    "swap": (
        "7c69612850656079d5b3cd16cf2e85d3050231841f73294a63a0f7f6855bd9f4",
        "85807a55b23d4e96acca4cc7e95b59e5e1745e39d45074a9b4c9fe4481d109e6",
        2453,
    ),
}


def _soak(swap: bool) -> tuple[str, str, int]:
    fabric = FaultInjectingTransport(build_transport("loopback", trace=Trace()), PLAN)
    network = Network.build(N, DENSITY, seed=SEED, transport=fabric)
    assert LINK[1] in network.adjacency(LINK[0])
    wire = hashlib.sha256()
    frames = 0

    def monitor(time: float, sender: int, frame: bytes) -> None:
        nonlocal frames
        frames += 1
        wire.update(struct.pack(">dII", time, sender, len(frame)))
        wire.update(frame)

    network.radio.monitors.append(monitor)
    deployed, _ = run_key_setup(network, ProtocolConfig(hop_ack_enabled=True))
    workload = SoakWorkload(deployed, RATE, DURATION_S, warmup_s=0.5, seed=SEED)
    workload.start()
    end = deployed.now() + DURATION_S + SETTLE_S
    if swap:
        deployed.run_until(SWAP_AT_S)
        fabric.plan = SWAPPED
    deployed.run_until(end)
    counters = json.dumps(dict(deployed.network.trace.counters), sort_keys=True)
    return wire.hexdigest(), hashlib.sha256(counters.encode()).hexdigest(), frames


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_faulted_soak_is_pinned(name):
    assert _soak(name == "swap") == EXPECTED[name]
