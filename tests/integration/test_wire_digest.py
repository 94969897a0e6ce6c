"""Pin the bytes on the air: a seeded soak must put the same frames on the wire.

Two seeded n=100 loopback soaks run from key setup to the last
retransmission: a clean one, and a lossy one under ``FaultPlan``
drop/duplicate/reorder with hop ACKs on. Every ``(time, sender, frame)``
the radio monitor sees goes into a sha256, and the final counter dict
into another. Any change to the crypto, codec or forwarding path that
moves one byte, one timestamp or one counter fails here, not only in
the benchmark. A deliberate wire change re-records both digests.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest

from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import run_key_setup
from repro.runtime.cluster import build_transport
from repro.runtime.faults import FaultInjectingTransport, FaultPlan, LinkFaults
from repro.sim.network import Network
from repro.sim.trace import Trace
from repro.workloads import SoakWorkload

N = 100
DENSITY = 10.0
SEED = 5
RATE = 150.0
DURATION_S = 2.0
SETTLE_S = 2.5

#: (wire sha256, counters sha256, frames on the air) per soak.
EXPECTED = {
    "clean": (
        "9887caef4a3e5f0abcd2fba0a4203582a9c7e9abf4654d5ddb99787596f2a1a1",
        "d0bbc9d5250de3f2e116e6c5d31bc9d62911e43fdecf411f1ded1c4f3cff1ee4",
        2186,
    ),
    "lossy": (
        "d4a2aa7a394e855d24035338d2c461e693a64fb40b32f0bcf48970eb4b26a6de",
        "c2f552e29f013bf6b0bbca2924b07750b7dba29b22253de4f9c46067f58219ae",
        5079,
    ),
}


def _soak(lossy: bool) -> tuple[str, str, int]:
    fabric = build_transport("loopback", trace=Trace())
    if lossy:
        plan = FaultPlan(
            seed=SEED, defaults=LinkFaults(drop=0.15, duplicate=0.05, reorder=0.05)
        )
        fabric = FaultInjectingTransport(fabric, plan)
    network = Network.build(N, DENSITY, seed=SEED, transport=fabric)
    wire = hashlib.sha256()
    frames = 0

    def monitor(time: float, sender: int, frame: bytes) -> None:
        nonlocal frames
        frames += 1
        wire.update(struct.pack(">dII", time, sender, len(frame)))
        wire.update(frame)

    network.radio.monitors.append(monitor)
    deployed, _ = run_key_setup(network, ProtocolConfig(hop_ack_enabled=lossy))
    workload = SoakWorkload(deployed, RATE, DURATION_S, warmup_s=0.5, seed=SEED)
    workload.start()
    deployed.run_for(DURATION_S + SETTLE_S)
    counters = json.dumps(dict(deployed.network.trace.counters), sort_keys=True)
    return wire.hexdigest(), hashlib.sha256(counters.encode()).hexdigest(), frames


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_soak_wire_is_pinned(name):
    assert _soak(name == "lossy") == EXPECTED[name]
