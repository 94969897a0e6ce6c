#!/usr/bin/env python3
"""Field monitoring with in-network data fusion.

The scenario from the paper's introduction: a dense field monitors
physical events; several sensors observe each event and all report.
Without fusion, every duplicate report burns radio energy all the way to
the base station. With the paper's cluster keys, intermediate nodes can
"peek" at the (hop-encrypted) reports and discard redundant ones
(Sec. II, "Intermediate Node Accessibility of Data") — Step 1 is turned
off so readings are visible to forwarders, exactly the deployment choice
the paper describes for data-fusion processing.

Run:  python examples/field_monitoring.py
"""

import numpy as np

from repro import ProtocolConfig, SecureSensorNetwork
from repro.protocol.aggregation import DuplicateEventFilter, decode_reading, encode_reading

N_EVENTS = 8
REPORTERS_PER_EVENT = 6

def run_campaign(fusion: bool, seed: int = 7) -> tuple[int, int, float]:
    """One monitoring campaign; returns (data transmissions, events delivered, uJ)."""
    config = ProtocolConfig(end_to_end_encryption=False)  # enable peeking
    ssn = SecureSensorNetwork.deploy(n=350, density=12.0, seed=seed, config=config)
    if fusion:
        ssn.enable_fusion(DuplicateEventFilter)

    rng = np.random.default_rng(seed)
    routable = ssn.deployed.gradient.routable()
    tx_before = ssn.network.trace["tx.data"]
    for event in range(N_EVENTS):
        # A cluster of sensors near a random point all observe the event.
        center = rng.choice(routable)
        pos = ssn.network.node(int(center)).position
        near = sorted(
            routable,
            key=lambda nid: float(np.linalg.norm(ssn.network.node(nid).position - pos)),
        )[:REPORTERS_PER_EVENT]
        for origin in near:
            ssn.send_reading(origin, encode_reading(event, 17.0 + event, origin))
    ssn.run(60.0)

    events = {decode_reading(r.data)[0] for r in ssn.readings()}
    tx = ssn.network.trace["tx.data"] - tx_before
    energy = sum(
        ssn.network.node(nid).energy.tx_consumed for nid in ssn.node_ids()
    )
    return tx, len(events), energy

def main() -> None:
    print(f"{N_EVENTS} events, {REPORTERS_PER_EVENT} reporters each\n")
    for fusion in (False, True):
        tx, events, energy = run_campaign(fusion)
        label = "with duplicate fusion " if fusion else "no fusion (baseline) "
        print(
            f"{label}: {tx:4d} data transmissions, "
            f"{events}/{N_EVENTS} events delivered, "
            f"{energy / 1000:.1f} mJ radio tx energy"
        )
    print(
        "\nfusion suppresses redundant reports inside the network while every"
        "\nevent still reaches the base station — the paper's energy argument."
    )

if __name__ == "__main__":
    main()
