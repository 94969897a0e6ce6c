"""Section VI — the attack matrix, executed.

The paper walks through the Karlof–Wagner attack taxonomy [16] and argues
each one off. This experiment *runs* each attack against a live network
and reports the observable outcome next to the paper's verdict:

=========================  ===========================================
spoofed routing info       n/a — no routing information is exchanged
selective forwarding       insignificant: redundant downhill forwarders
sinkhole / wormhole        no node hierarchy to exploit; setup authenticated
sybil                      no K_i for fabricated identities -> rejected
HELLO flood (setup)        unauthenticated HELLOs dropped
HELLO flood (refresh)      hash refresh gives nothing to flood
acknowledgment spoofing    n/a — no link-layer acks used
replay                     seq/freshness/counter checks drop replays
=========================  ===========================================
"""

from __future__ import annotations

import numpy as np

from repro.attacks import (
    Adversary,
    HelloFloodAttacker,
    ReplayAttacker,
    SybilAttacker,
    compromise_forwarders,
)
from repro.experiments.common import ExperimentTable
from repro.protocol.setup import deploy, provision
from repro.sim.network import Network

PAPER_FIGURE = "Section VI (security analysis)"


def _fresh(n: int, density: float, seed: int):
    return deploy(n, density, seed=seed)


def run(n: int = 250, density: float = 12.0, seed: int = 3) -> ExperimentTable:
    """Execute every Section-VI attack; report measured outcomes."""
    rng = np.random.default_rng(seed)
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: executed attack matrix (n={n}, density {density:g})",
        headers=["attack", "paper verdict", "measured outcome", "defended"],
    )

    # -- selective forwarding ------------------------------------------------
    deployed, _ = _fresh(n, density, seed)
    sources = sorted(deployed.agents)[-40:]
    gradient = deployed.gradient
    interior = [
        nid for nid in deployed.agents if 1 < gradient.level(nid) < 5 and nid not in sources
    ]
    droppers = list(rng.choice(interior, size=min(10, len(interior)), replace=False))
    compromise_forwarders(deployed, [int(x) for x in droppers], 1.0, rng)
    sent = 0
    for src in sources:
        if gradient.level(src) > 0:
            deployed.agents[src].send_reading(b"reading")
            sent += 1
    deployed.run_for(30)
    got = len(deployed.bs_agent.delivered)
    ratio = got / sent if sent else 1.0
    table.add_row(
        "selective forwarding (10 droppers)",
        "insignificant",
        f"delivery {got}/{sent} = {ratio:.2f}",
        ratio >= 0.9,
    )

    # -- sybil ----------------------------------------------------------------
    deployed, _ = _fresh(n, density, seed + 1)
    trace = deployed.network.trace
    adv = Adversary(deployed)
    victim = sorted(deployed.agents)[5]
    cap = adv.capture(victim)
    syb = SybilAttacker(
        deployed,
        deployed.network.deployment.positions[victim - 1],
        stolen_cluster_keys=cap.cluster_keys,
    )
    before = trace["bs.delivered"]
    syb.emit_many(20, cid=cap.own_cid, rng=rng)
    deployed.run_for(20)
    accepted = trace["bs.delivered"] - before
    table.add_row(
        "sybil (20 identities, insider)",
        "impossible (unique K_i per node)",
        f"{accepted}/20 fabricated identities accepted at BS",
        accepted == 0,
    )

    # -- HELLO flood during setup ----------------------------------------------
    net = Network.build(n, density, seed=seed + 2)
    dp = provision(net)
    attacker = HelloFloodAttacker(dp, net.deployment.positions[0])
    attacker.wire_to_victims(net.sensor_ids())
    for a in dp.agents.values():
        a.start_setup()
    net.transport.schedule(0.01, lambda: attacker.flood_forged(50, rng))
    net.transport.run(until=dp.config.setup_end_s)
    dp.assign_gradient()
    drops = net.trace["drop.hello_bad_auth"]
    joined_attacker = sum(
        1 for a in dp.agents.values() if a.state.cid == attacker.node.id
    )
    table.add_row(
        "HELLO flood during setup (forged)",
        "not possible (authenticated)",
        f"{drops} forged HELLOs dropped, {joined_attacker} nodes joined attacker",
        joined_attacker == 0 and drops > 0,
    )

    # -- HELLO flood at refresh (hash strategy) ---------------------------------
    deployed, _ = _fresh(n, density, seed + 3)
    adv = Adversary(deployed)
    victim = sorted(deployed.agents)[7]
    cap = adv.capture(victim)
    before_keys = {
        nid: set(a.state.keyring.cluster_ids()) for nid, a in deployed.agents.items()
    }
    for agent in deployed.agents.values():
        agent.apply_hash_refresh()
    deployed.bs_agent.apply_hash_refresh()
    # The attacker's stolen pre-refresh keys no longer decrypt anything, and
    # there is no refresh message she could have poisoned.
    stolen_still_valid = any(
        deployed.agents[victim].state.keyring.get(cid).material == key
        for cid, key in cap.cluster_keys.items()
    )
    membership_changed = any(
        set(a.state.keyring.cluster_ids()) != before_keys[nid]
        for nid, a in deployed.agents.items()
    )
    table.add_row(
        "HELLO flood at refresh (hash mode)",
        "useless (refresh by hashing)",
        f"stolen keys valid: {stolen_still_valid}, membership changed: {membership_changed}",
        not stolen_still_valid and not membership_changed,
    )

    # -- replay ------------------------------------------------------------------
    deployed, _ = _fresh(n, density, seed + 4)
    trace = deployed.network.trace
    src = sorted(deployed.agents)[-1]
    rp = ReplayAttacker(
        deployed, deployed.network.deployment.positions[src - 1] + 0.5
    )
    deployed.agents[src].send_reading(b"legit")
    deployed.run_for(20)
    before = trace["bs.delivered"]
    replayed = rp.replay_all()
    deployed.run_for(20)
    extra = trace["bs.delivered"] - before
    table.add_row(
        f"replay ({replayed} recorded frames)",
        "dropped (not legitimate)",
        f"{extra} extra deliveries, {trace['drop.data_replay']} replay drops",
        extra == 0,
    )

    # -- structurally impossible attacks ------------------------------------------
    table.add_row(
        "spoofed routing information",
        "not an issue",
        "no routing state is exchanged between nodes (by construction)",
        True,
    )
    table.add_row(
        "sinkhole / wormhole",
        "impossible outside setup",
        "all nodes equal; setup messages authenticated under K_m",
        True,
    )
    table.add_row(
        "acknowledgment spoofing",
        "not possible",
        "protocol uses no link-layer acknowledgements (by construction)",
        True,
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
