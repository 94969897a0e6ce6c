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
        "24d016572cacbefe396f6bae58755ceff097123f968b7ebcdfafec4ad917a1ef",
        "7466f88cb74129e52410ca0fa123a732d6622652d8fb553347262cb66529b1be",
        1063,
    ),
    "lossy": (
        "31ca56e966bb3fc530c4ef482255c61789fa4ae80aefd8db6418d887aec4feee",
        "0fee7e38f25ae0cbcff07f84d9fcb9d6149cb905abd1099f9aee1baade00530a",
        2709,
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
