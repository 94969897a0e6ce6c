"""Full-lifecycle integration: deploy -> traffic -> capture -> evict ->
replace -> refresh -> traffic, in one continuous simulation."""

import numpy as np

from repro import SecureSensorNetwork
from repro.attacks import Adversary, insert_clone


def test_full_lifecycle():
    ssn = SecureSensorNetwork.deploy(n=250, density=11.0, seed=200)

    # Phase 1: normal operation.
    sources = ssn.deployed.gradient.routable()[:8]
    for src in sources:
        ssn.send_reading(src, b"phase1")
    ssn.run(30)
    assert len({r.source for r in ssn.readings()}) == len(sources)

    # Phase 2: compromise + clone.
    victim = next(n for n in sources if ssn.deployed.gradient.level(n) > 1)
    loot = Adversary(ssn.deployed).capture(victim)
    assert loot.master_key is None
    clone = insert_clone(
        ssn.deployed, loot, ssn.network.deployment.positions[victim - 1] + 0.3
    )
    before = len(ssn.readings())
    clone.inject_reading(b"forged")
    ssn.run(20)
    assert len(ssn.readings()) == before + 1  # clone wins pre-eviction

    # Phase 3: eviction.
    revoked = ssn.revoke_node(victim)
    assert set(revoked) == set(loot.cluster_keys)
    before = len(ssn.readings())
    clone.inject_reading(b"forged-again")
    ssn.run(20)
    assert len(ssn.readings()) == before  # clone is dead

    # Phase 4: replacement node near a healthy cluster.
    healthy = next(
        n
        for n in ssn.node_ids()
        if ssn.agent(n).state.cid not in (*revoked, None)
        and 0 < ssn.deployed.gradient.level(n) <= 4
        and ssn.agent(n).state.keyring.has(ssn.agent(n).state.cid)
    )
    replacement = ssn.add_node(
        ssn.network.node(healthy).position + np.array([0.5, 0.0])
    )
    assert replacement.operational

    # Phase 5: key refresh, then traffic still flows end to end.
    ssn.refresh_keys()
    before = len(ssn.readings())
    ssn.send_reading(replacement.state.node_id, b"phase5")
    survivors = [
        n
        for n in sources
        if n != victim and ssn.agent(n).state.cid is not None
        and ssn.agent(n).state.keyring.has(ssn.agent(n).state.cid)
        and ssn.deployed.gradient.level(n) > 0
    ]
    for src in survivors[:3]:
        ssn.send_reading(src, b"phase5")
    ssn.run(40)
    phase5 = [r for r in ssn.readings()[before:] if r.data == b"phase5"]
    assert len(phase5) >= 1 + min(3, len(survivors)) - 1  # replacement + most survivors


def test_energy_is_accounted_throughout():
    ssn = SecureSensorNetwork.deploy(n=150, density=10.0, seed=201)
    for src in ssn.node_ids()[:5]:
        if ssn.deployed.gradient.level(src) > 0:
            ssn.send_reading(src, b"x")
    ssn.run(30)
    total_tx = sum(ssn.network.node(n).energy.tx_consumed for n in ssn.node_ids())
    total_rx = sum(ssn.network.node(n).energy.rx_consumed for n in ssn.node_ids())
    assert total_tx > 0 and total_rx > 0
    # Every node transmitted at least once (LINKINFO during setup).
    assert all(
        ssn.network.node(n).energy.tx_consumed > 0 for n in ssn.node_ids()
    )


def test_two_networks_are_isolated():
    # Keys from one deployment are worthless in another (independent K_m,
    # K_MC): a frame recorded in network A fails everywhere in network B.
    a = SecureSensorNetwork.deploy(n=80, density=10.0, seed=202)
    b = SecureSensorNetwork.deploy(n=80, density=10.0, seed=203)
    src = a.deployed.gradient.routable()[0]
    frames = []
    a.network.radio.monitors.append(lambda t, s, f: frames.append(f))
    a.send_reading(src, b"cross-network")
    a.run(20)
    bad_auth_before = b.network.trace["drop.data_bad_auth"]
    unknown_before = b.network.trace["drop.data_unknown_cluster"]
    for frame in frames:
        b.network.node(b.node_ids()[0]).broadcast(frame)
    b.run(20)
    assert not any(r.data == b"cross-network" for r in b.readings())
    assert (
        b.network.trace["drop.data_bad_auth"] > bad_auth_before
        or b.network.trace["drop.data_unknown_cluster"] > unknown_before
    )
