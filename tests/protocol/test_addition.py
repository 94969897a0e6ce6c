"""New-node addition (Sec. IV-E)."""

import numpy as np
import pytest

from repro.protocol.addition import deploy_new_node, finalize_join
from repro.protocol.api import SecureSensorNetwork
from repro.protocol.config import JOIN_RESPONSE_JITTER_S, JOIN_WINDOW_S
from repro.protocol.state import Role
from tests.conftest import run_for, small_deployment


def join_at(deployed, position, hash_epoch=0):
    joiner = deploy_new_node(deployed, position, hash_epoch=hash_epoch)
    run_for(deployed, JOIN_WINDOW_S + JOIN_RESPONSE_JITTER_S + 0.5)
    return joiner


def test_join_near_cluster_succeeds():
    deployed = small_deployment(seed=30)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    assert joiner.result is not None
    agent = finalize_join(deployed, joiner)
    assert agent.state.role is Role.MEMBER
    assert agent.operational
    assert agent.state.cid is not None
    assert agent.state.stored_key_count() >= 1


def test_joined_node_holds_correct_keys():
    deployed = small_deployment(seed=31)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    agent = finalize_join(deployed, joiner)
    # Every stored key must equal the actual cluster key of that cluster.
    for cid in agent.state.keyring.cluster_ids():
        real = deployed.agents[cid].state.preload.cluster_key
        assert agent.state.keyring.get(cid) == real


def test_kmc_erased_after_join():
    deployed = small_deployment(seed=32)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    assert joiner.preload.kmc.erased


def test_kmc_erased_even_on_failure():
    deployed = small_deployment(seed=33)
    joiner = join_at(deployed, np.array([1e6, 1e6]))  # out of range of all
    assert joiner.result is None
    assert joiner.preload.kmc.erased


def test_finalize_join_fails_without_result():
    deployed = small_deployment(seed=33)
    joiner = join_at(deployed, np.array([1e6, 1e6]))
    with pytest.raises(RuntimeError, match="did not complete"):
        finalize_join(deployed, joiner)


def test_joined_node_can_send_readings():
    deployed = small_deployment(seed=34)
    anchor = next(
        nid for nid in deployed.agents if 0 < deployed.gradient.level(nid) <= 3
    )
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    agent = finalize_join(deployed, joiner)
    agent.send_reading(b"newcomer")
    run_for(deployed, 30)
    assert any(
        r.source == agent.state.node_id and r.data == b"newcomer"
        for r in deployed.bs_agent.delivered
    )


def test_joined_node_gets_fresh_node_key_registered():
    deployed = small_deployment(seed=35)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    agent = finalize_join(deployed, joiner)
    nid = agent.state.node_id
    assert nid in deployed.registry.node_keys
    assert deployed.registry.node_keys[nid].material == agent.state.preload.node_key.material


def test_join_after_hash_refresh():
    ssn = SecureSensorNetwork.deploy(n=120, density=10.0, seed=36)
    ssn.refresh_keys()
    ssn.refresh_keys()
    anchor = next(
        nid for nid in ssn.node_ids() if 0 < ssn.deployed.gradient.level(nid) <= 3
    )
    agent = ssn.add_node(ssn.network.node(anchor).position + 0.5)
    # Keys must match the *refreshed* cluster keys.
    for cid in agent.state.keyring.cluster_ids():
        assert agent.state.keyring.get(cid) == ssn.agent(cid).state.keyring.get(cid)
    ssn.send_reading(agent.state.node_id, b"post-refresh-join")
    ssn.run(30)
    assert any(r.data == b"post-refresh-join" for r in ssn.readings())


def test_join_responses_bound_to_requester():
    # A recorded JOIN_RESP for node A must not verify for node B: the MAC
    # binds the requester id (the paper's impersonation defense).
    deployed = small_deployment(seed=37)
    anchor = sorted(deployed.agents)[10]
    pos = deployed.network.node(anchor).position + 0.5
    j1 = join_at(deployed, pos)
    agent1 = finalize_join(deployed, j1)

    from repro.crypto.mac import verify
    from repro.protocol import messages

    cid = agent1.state.cid
    kc = agent1.state.keyring.get(cid).material
    tag_for_1 = __import__("repro.crypto.mac", fromlist=["mac"]).mac(
        kc, messages.join_resp_mac_input(cid, agent1.state.node_id), 8
    )
    assert verify(kc, messages.join_resp_mac_input(cid, agent1.state.node_id), tag_for_1)
    assert not verify(kc, messages.join_resp_mac_input(cid, 999999), tag_for_1)


def test_chain_commitment_current_at_join():
    deployed = small_deployment(seed=38)
    deployed.bs_agent.revoke_clusters([99991])
    run_for(deployed, 10)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    agent = finalize_join(deployed, joiner)
    # The new node starts at the chain's current index; a second
    # revocation must verify for it.
    assert agent.state.chain.index == 1
    deployed.bs_agent.revoke_clusters([99992])
    run_for(deployed, 10)
    assert agent.state.chain.index == 2
