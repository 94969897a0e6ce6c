"""Unconstrained re-clustering refresh (the paper's first proposal)."""

import numpy as np
from repro.attacks import Adversary, HelloFloodAttacker
from repro.protocol import messages
from repro.protocol.config import ProtocolConfig
from repro.protocol.refresh import RefreshCoordinator
from tests.conftest import run_for, small_deployment


def reelect_deployment(seed=190, n=150):
    return small_deployment(
        n=n, seed=seed, config=ProtocolConfig(refresh_strategy="reelect")
    )


def test_reelection_forms_consistent_clusters():
    deployed = reelect_deployment()
    old_cids = {a.state.cid for a in deployed.agents.values()}
    RefreshCoordinator(deployed).run_round()
    by_cid = {}
    for agent in deployed.agents.values():
        st = agent.state
        assert st.cid is not None and st.keyring.has(st.cid)
        by_cid.setdefault(st.cid, set()).add(st.keyring.get(st.cid).material)
    assert all(len(keys) == 1 for keys in by_cid.values())
    # It is a genuinely *new* clustering (new random keys; heads differ
    # with overwhelming probability on 150 nodes).
    assert set(by_cid) != old_cids


def test_reelection_rotates_all_keys():
    deployed = reelect_deployment(seed=191)
    before = {
        nid: a.state.keyring.get(a.state.cid).material
        for nid, a in deployed.agents.items()
    }
    RefreshCoordinator(deployed).run_round()
    for nid, agent in deployed.agents.items():
        assert agent.state.keyring.get(agent.state.cid).material != before[nid]


def test_data_flows_after_reelection():
    deployed = reelect_deployment(seed=192)
    RefreshCoordinator(deployed).run_round()
    far = max(
        deployed.gradient.routable(),
        key=deployed.gradient.level,
    )
    deployed.agents[far].send_reading(b"post-reelection")
    run_for(deployed, 30)
    assert any(r.data == b"post-reelection" for r in deployed.bs_agent.delivered)


def test_stolen_pre_reelection_keys_are_dead():
    deployed = reelect_deployment(seed=193)
    victim = sorted(deployed.agents)[4]
    cap = Adversary(deployed).capture(victim)
    RefreshCoordinator(deployed).run_round()
    stolen = set(cap.cluster_keys.values())
    for agent in deployed.agents.values():
        st = agent.state
        assert st.keyring.get(st.cid).material not in stolen


def test_hijack_attracts_key_holders():
    # The Sec. VI attack this strategy exists to demonstrate.
    deployed = reelect_deployment(seed=194)
    victim = next(
        nid for nid, a in deployed.agents.items() if a.state.stored_key_count() >= 2
    )
    cap = Adversary(deployed).capture(victim)
    attacker = HelloFloodAttacker(
        deployed, deployed.network.deployment.positions[victim - 1] + 0.2
    )
    coord = RefreshCoordinator(deployed)
    coord.refresh_once()
    attacker.hijack_reelection(
        cap.own_cid, cap.cluster_keys[cap.own_cid], coord.epoch, np.random.default_rng(0)
    )
    run_for(deployed, deployed.config.setup_end_s + 1)
    hijacked = [
        nid for nid, a in deployed.agents.items() if a.state.cid == attacker.node.id
    ]
    assert hijacked  # she formed a cluster of honest nodes around herself


def test_hijack_cannot_use_wrong_key():
    deployed = reelect_deployment(seed=195)
    victim = sorted(deployed.agents)[4]
    cap = Adversary(deployed).capture(victim)
    attacker = HelloFloodAttacker(
        deployed, deployed.network.deployment.positions[victim - 1] + 0.2
    )
    coord = RefreshCoordinator(deployed)
    coord.refresh_once()
    # Forge with a random key instead of a stolen one: nobody joins.
    attacker.hijack_reelection(
        cap.own_cid, bytes(16), coord.epoch, np.random.default_rng(0)
    )
    run_for(deployed, deployed.config.setup_end_s + 1)
    assert not any(
        a.state.cid == attacker.node.id for a in deployed.agents.values()
    )
    assert deployed.network.trace["drop.reelect_bad_auth"] > 0


def test_reelect_message_roundtrip():
    aead = ProtocolConfig().aead
    old_key = bytes(range(16))
    frame = messages.encode_reelect_hello(old_key, 7, 42, 3, bytes(16), aead)
    assert messages.reelect_header(frame) == (7, 42, 3)
    old_cid, sender, epoch, new_cid, new_key = messages.decode_reelect_hello(
        old_key, frame, aead
    )
    assert (old_cid, sender, epoch, new_cid, new_key) == (7, 42, 3, 42, bytes(16))


def test_reelect_link_variant_carries_head_id():
    aead = ProtocolConfig().aead
    old_key = bytes(range(16))
    frame = messages.encode_reelect_hello(
        old_key, 7, 42, 3, bytes(16), aead, new_cid=99
    )
    *_, new_cid, _ = messages.decode_reelect_hello(old_key, frame, aead)
    assert new_cid == 99


def test_stale_epoch_ignored():
    deployed = reelect_deployment(seed=196)
    coord = RefreshCoordinator(deployed)
    coord.run_round()
    trace = deployed.network.trace
    # A frame from epoch 1 re-aired after the round finished: inactive.
    agent = next(iter(deployed.agents.values()))
    frame = messages.encode_reelect_hello(
        bytes(16), 1, 2, 1, bytes(16), deployed.config.aead
    )
    deployed.network.node(agent.state.node_id).broadcast(frame)
    run_for(deployed, 5)
    assert trace["drop.reelect_inactive"] > 0
