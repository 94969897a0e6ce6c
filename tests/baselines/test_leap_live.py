"""The live LEAP implementation (repro.leap)."""

import pytest

from repro.leap import run_leap_bootstrap
from repro.leap.agent import pairwise_key
from repro.leap.setup import capture_leap_node, derive_pairwise_from_capture


@pytest.fixture(scope="module")
def leap():
    return run_leap_bootstrap(120, 10.0, seed=33)


def test_bootstrap_completes(leap):
    assert all(a.bootstrapped for a in leap.agents.values())
    assert all(a.k_init.erased for a in leap.agents.values())


def test_pairwise_keys_agree(leap):
    net = leap.network
    for nid, agent in leap.agents.items():
        for other in net.adjacency(nid):
            if other not in leap.agents:
                continue
            if other in agent.pairwise:
                mirrored = leap.agents[other].pairwise.get(nid)
                assert mirrored == agent.pairwise[other]


def test_cluster_keys_distributed_to_neighbors(leap):
    net = leap.network
    for nid, agent in leap.agents.items():
        for other in net.adjacency(nid):
            if other in leap.agents and other in agent.pairwise:
                # We should have learned the neighbor's cluster key.
                assert agent.neighbor_cluster_keys.get(other) == (
                    leap.agents[other].cluster_key.material
                )


def test_storage_proportional_to_degree(leap):
    net = leap.network
    for nid, agent in leap.agents.items():
        deg = len([x for x in net.adjacency(nid) if x in leap.agents])
        # 2 fixed keys + pairwise + received cluster keys (≈ 2 per neighbor).
        assert agent.keys_stored() == 2 + len(agent.pairwise) + len(
            agent.neighbor_cluster_keys
        )
        assert len(agent.pairwise) <= deg


def test_bootstrap_cost_is_one_plus_degree(leap):
    # HELLO (1) + one cluster-key unicast per discovered neighbor.
    for nid, agent in leap.agents.items():
        assert leap.bootstrap_transmissions(nid) == 1 + len(agent.pairwise)
    trace = leap.network.trace
    assert trace["leap.tx.hello"] + trace["leap.tx.cluster_key"] == sum(
        leap.bootstrap_transmissions(nid) for nid in leap.agents
    )


def test_one_broadcast_reaches_all_neighbors(leap):
    nid = sorted(leap.agents)[10]
    agent = leap.agents[nid]
    node = leap.network.node(nid)
    sent_before = node.frames_sent
    agent.broadcast_payload(b"leap-broadcast")
    leap.network.transport.run(until=leap.network.transport.now + 5)
    assert node.frames_sent == sent_before + 1
    receivers = [
        other
        for other in leap.network.adjacency(nid)
        if other in leap.agents
        and (nid, b"leap-broadcast") in leap.agents[other].received_payloads
    ]
    learned = [
        other
        for other in leap.network.adjacency(nid)
        if other in leap.agents and nid in leap.agents[other].neighbor_cluster_keys
    ]
    assert sorted(receivers) == sorted(learned)
    assert receivers  # someone actually heard it


class TestHelloFlood:
    def test_flood_blows_up_victim_storage(self):
        victim = 40
        clean = run_leap_bootstrap(100, 10.0, seed=34)
        flooded = run_leap_bootstrap(
            100, 10.0, seed=34, flood_victim=victim, flood_ids=range(1000, 1500)
        )
        clean_keys = clean.agents[victim].keys_stored()
        flooded_keys = flooded.agents[victim].keys_stored()
        assert flooded_keys >= clean_keys + 500

    def test_capture_after_flood_yields_universal_keys(self):
        victim = 40
        flooded = run_leap_bootstrap(
            100, 10.0, seed=35, flood_victim=victim, flood_ids=range(1000, 1200)
        )
        loot = capture_leap_node(flooded, victim)
        # Every forged identity's pairwise key with the victim is in hand...
        for forged in range(1000, 1200):
            assert forged in loot["pairwise"]
        # ...and K_v lets her derive the key to ANY smaller id she never
        # even flooded: "shared between the compromised node and all other
        # nodes in the network".
        for other in (1, 7, 23):
            derived = derive_pairwise_from_capture(loot["k_v"], victim, other)
            assert derived == pairwise_key(
                flooded.agents[victim].k_v.material, victim, other, from_kv=True
            )

    def test_flood_costs_forged_work_even_without_capture(self):
        victim = 40
        flooded = run_leap_bootstrap(
            100, 10.0, seed=36, flood_victim=victim, flood_ids=range(1000, 1100)
        )
        # The victim also wasted a cluster-key unicast on every forged id.
        trace = flooded.network.trace
        assert trace["leap.tx.cluster_key"] >= 100
