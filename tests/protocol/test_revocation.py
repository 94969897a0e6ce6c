"""Eviction of compromised nodes (Sec. IV-D)."""

from repro.crypto import keychain
from repro.crypto.kdf import chain_step
from repro.crypto.mac import mac
from repro.protocol import messages
from tests.conftest import run_for, small_deployment


def test_revocation_deletes_keys_network_wide():
    deployed = small_deployment(seed=20)
    victim = sorted(deployed.agents)[5]
    cids = list(deployed.agents[victim].state.keyring.cluster_ids())
    deployed.bs_agent.revoke_clusters(cids)
    run_for(deployed, 10)
    for agent in deployed.agents.values():
        for cid in cids:
            assert not agent.state.keyring.has(cid)


def test_revocation_floods_whole_network():
    deployed = small_deployment(seed=21)
    cids = [sorted(deployed.agents)[0]]
    # Revoke a (possibly non-existent) cluster id: the flood must still
    # reach everyone and advance every chain verifier.
    deployed.bs_agent.revoke_clusters(cids)
    run_for(deployed, 10)
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 1


def test_orphaned_nodes_cannot_originate():
    deployed = small_deployment(seed=22)
    victim = sorted(deployed.agents)[5]
    own = deployed.agents[victim].state.cid
    deployed.bs_agent.revoke_clusters([own])
    run_for(deployed, 10)
    assert deployed.agents[victim].state.cid is None


def test_replayed_revocation_ignored():
    deployed = small_deployment(seed=23)
    trace = deployed.network.trace
    frame = deployed.bs_agent.revoke_clusters([12345])
    run_for(deployed, 10)
    floods_before = trace["tx.revoke_flood"]
    # An attacker replays the same (already consumed) command.
    deployed.network.node(sorted(deployed.agents)[0]).broadcast(frame)
    run_for(deployed, 10)
    assert trace["tx.revoke_flood"] == floods_before  # nobody re-floods
    # The replayed key is genuine: an echo, not a forgery.
    assert trace["drop.revoke_duplicate"] > 0
    assert trace["drop.revoke_bad_chain"] == 0


def test_forged_revocation_rejected():
    deployed = small_deployment(seed=24)
    trace = deployed.network.trace
    # Forge with a random "chain key": fails the commitment walk.
    forged = messages.encode_revoke(1, bytes(16), [1], mac(bytes(16),
                                    messages.revoke_mac_input(1, [1]), 8))
    deployed.network.node(sorted(deployed.agents)[0]).broadcast(forged)
    run_for(deployed, 10)
    assert trace["drop.revoke_bad_chain"] > 0
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 0


def test_revocation_index_past_the_chain_is_rejected_without_walking_it(monkeypatch):
    deployed = small_deployment(seed=24)
    trace = deployed.network.trace
    steps: list[bytes] = []

    def counted_step(key: bytes) -> bytes:
        steps.append(key)
        assert len(steps) < 10_000, "walked the chain past its end"
        return chain_step(key)

    monkeypatch.setattr(keychain, "chain_step", counted_step)
    # A huge index (a forged or corrupted frame) is refused before the
    # commitment walk, which would take up to 2^32 hash steps.
    index = 2**32 - 1
    forged = messages.encode_revoke(
        index, bytes(16), [1], mac(bytes(16), messages.revoke_mac_input(index, [1]), 8)
    )
    deployed.network.node(sorted(deployed.agents)[0]).broadcast(forged)
    run_for(deployed, 10)
    assert trace["drop.revoke_bad_chain"] > 0
    assert not steps
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 0


def test_tampered_cid_list_rejected():
    deployed = small_deployment(seed=25)
    trace = deployed.network.trace
    index, chain_key = deployed.registry.chain.reveal_next()
    tag = mac(chain_key, messages.revoke_mac_input(index, [777]), 8)
    # Attacker swaps the CID list after the BS signed it.
    tampered = messages.encode_revoke(index, chain_key, [888], tag)
    deployed.network.node(sorted(deployed.agents)[0]).broadcast(tampered)
    run_for(deployed, 10)
    assert trace["drop.revoke_bad_mac"] > 0
    assert trace["revoke.key_deleted"] == 0  # no key ring was touched


def test_sequential_revocations_advance_chain():
    deployed = small_deployment(seed=26)
    deployed.bs_agent.revoke_clusters([11111])
    run_for(deployed, 10)
    deployed.bs_agent.revoke_clusters([22222])
    run_for(deployed, 10)
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 2


def test_late_echo_of_an_earlier_revocation_is_a_duplicate():
    deployed = small_deployment(seed=26)
    trace = deployed.network.trace
    first = deployed.bs_agent.revoke_clusters([11111])
    run_for(deployed, 10)
    deployed.bs_agent.revoke_clusters([22222])
    run_for(deployed, 10)
    duplicates = trace["drop.revoke_duplicate"]
    floods = trace["tx.revoke_flood"]
    # Index 1 arrives again after every node has moved on to index 2.
    deployed.network.node(sorted(deployed.agents)[0]).broadcast(first)
    run_for(deployed, 10)
    assert trace["drop.revoke_duplicate"] > duplicates
    assert trace["drop.revoke_bad_chain"] == 0
    assert trace["tx.revoke_flood"] == floods
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 2


def test_lost_revocation_does_not_block_later_ones():
    # Issue one revocation while the radio is fully lossy, then a second
    # with the radio healthy: the second must verify despite the gap.
    from repro.sim.network import Network
    from repro.protocol.setup import run_key_setup

    net = Network.build(60, 10.0, seed=27)
    deployed, _ = run_key_setup(net)
    # Simulate total loss of revocation 1 by consuming a chain key without
    # broadcasting anything.
    deployed.registry.chain.reveal_next()
    deployed.bs_agent.revoke_clusters([33333])
    run_for(deployed, 10)
    for agent in deployed.agents.values():
        assert agent.state.chain.index == 2


def test_bs_rejects_frames_sealed_under_revoked_cluster_key():
    # A frame arriving at the BS *directly* under a revoked cluster's key
    # (e.g. from a clone holding the stolen key) must be refused even
    # before MAC verification.
    deployed = small_deployment(seed=28)
    bs_neighbor = deployed.network.adjacency(0)[0]
    agent = deployed.agents[bs_neighbor]
    cid = agent.state.cid
    deployed.bs_agent.revoked_cids.add(cid)
    agent.send_reading(b"from-revoked")
    run_for(deployed, 30)
    assert deployed.network.trace["bs.drop_revoked_cluster"] > 0


def test_revoke_node_blocks_future_e2e_readings():
    # Full eviction through the facade: the victim's node key is dropped,
    # so even a perfectly-keyed clone cannot authenticate to the BS.
    from repro import SecureSensorNetwork

    ssn = SecureSensorNetwork.deploy(n=150, density=10.0, seed=29)
    victim = next(
        nid for nid in ssn.node_ids() if ssn.deployed.gradient.level(nid) > 0
    )
    ssn.revoke_node(victim)
    assert victim not in ssn.deployed.registry.node_keys
