#!/usr/bin/env python3
"""Deployment in a harsh RF environment: loss, collisions, CSMA.

The paper's simulations (like most key-management evaluations) assume a
clean channel. This example stresses the protocol on a lossy medium with
collision modeling and a CSMA MAC — the conditions of a real field — and
shows which guarantees survive. Link loss is a fault-injection
``FaultPlan`` drop, decided per reception at delivery time:

* key setup still terminates with every node clustered and consistent
  keys (lost HELLOs just mean more, smaller clusters);
* data delivery degrades gracefully (redundant gradient forwarders mask
  per-link loss);
* a periodic hash refresh keeps running (it needs no radio at all).

Part two repeats the loss sweep on a smaller field, adding duplication
and reordering, and shows what the opt-in hop-by-hop reliability
extension (custody ACKs + retransmission, setup re-announcement) buys
back at each loss rate.

Run:  python examples/harsh_environment.py
"""

from repro.protocol.metrics import validate_clusters
from repro.protocol.setup import deploy
from repro.runtime.chaos import ChaosScenario, run_chaos
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.sim.radio import RadioConfig

def run_field(loss: float) -> None:
    deployed, metrics = deploy(
        300,
        12.0,
        seed=21,
        radio_config=RadioConfig(model_collisions=True, mac="csma"),
        fault_plan=FaultPlan(seed=21, defaults=LinkFaults(drop=loss)),
    )
    net = deployed.network
    problems = validate_clusters(deployed)

    # Stagger the reporting duty cycle: synchronized transmissions would
    # collide at every receiver no matter the MAC (hidden terminals).
    sources = deployed.gradient.routable()[:30]
    for i, src in enumerate(sources):
        agent = deployed.agents[src]
        deployed.schedule(1.0 + 2.0 * i, lambda a=agent: a.send_reading(b"harsh"))
    deployed.run_until(deployed.now() + 2.0 * len(sources) + 60)
    got = len({r.source for r in deployed.bs_agent.delivered})

    print(
        f"loss={loss:4.0%}  clusters={metrics.cluster_count:3d} "
        f"keys/node={metrics.mean_keys_per_node:4.2f}  "
        f"invariant violations={len(problems)}  "
        f"collisions={net.trace['net.frames_collided']:4d}  "
        f"csma deferrals={net.radio.csma_deferrals:4d}  "
        f"delivery={got}/{len(sources)}"
    )

def run_live_sweep(loss: float) -> None:
    """One loss rate on the live loopback runtime, with and without retx."""
    base = dict(seed=21, n=60, density=10.0, drop=loss, duplicate=0.05,
                reorder=0.05, rounds=2, settle_s=8.0)
    with_retx = run_chaos(ChaosScenario(**base))
    without = run_chaos(ChaosScenario(retransmits=False, **base))
    print(
        f"loss={loss:4.0%}  bare={without.delivery_ratio:7.2%}  "
        f"with retransmits={with_retx.delivery_ratio:7.2%}  "
        f"(retx sent={with_retx.counter('net.retx.sent'):3d}, "
        f"giveups={with_retx.counter('forward.giveup'):2d})"
    )

def main() -> None:
    print("300 nodes, density 12, CSMA MAC + collision modeling\n")
    for loss in (0.0, 0.05, 0.15, 0.30):
        run_field(loss)
    print(
        "\nsetup stays structurally sound at every loss rate; delivery"
        "\ndegrades gracefully thanks to redundant downhill forwarders."
    )

    print(
        "\nlive loopback runtime, 60 nodes: injected loss + duplication +"
        "\nreordering (FaultPlan), hop-by-hop reliability off vs on\n"
    )
    for loss in (0.0, 0.05, 0.15, 0.30):
        run_live_sweep(loss)
    print(
        "\nthe custody-ACK/retransmit layer holds delivery near 100% at"
        "\nloss rates where the bare protocol visibly degrades."
    )

if __name__ == "__main__":
    main()
