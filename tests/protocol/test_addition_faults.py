"""Node addition and key refresh under injected link faults.

The chaos suite (tests/integration) proves the *setup* phase survives a
lossy fabric; these tests pin the two post-deployment control flows —
the Sec. IV-E join handshake and the hash-chain key refresh — against
the same drop/duplicate/reorder injection, on a live loopback fabric
with the reliability layer on. Everything here is seeded, so a
regression is a real behavior change, not noise.
"""

import numpy as np
import pytest

from repro.protocol.addition import deploy_new_node, finalize_join
from repro.protocol.config import JOIN_RESPONSE_JITTER_S, JOIN_WINDOW_S, ProtocolConfig
from repro.protocol.refresh import RefreshCoordinator
from repro.runtime import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults

FAULTS = FaultPlan(seed=9, defaults=LinkFaults(drop=0.10, duplicate=0.05, reorder=0.05))


def faulted_deployment(seed=11):
    deployed, _ = deploy_live(
        50, 10.0, seed=seed, transport="loopback",
        config=ProtocolConfig(hop_ack_enabled=True, refresh_strategy="rehash"),
        fault_plan=FAULTS,
    )
    deployed.assign_gradient()
    return deployed


def join_near(deployed, anchor, offset=0.5, hash_epoch=0):
    pos = np.asarray(deployed.network.nodes[anchor].position) + offset
    joiner = deploy_new_node(deployed, pos, hash_epoch=hash_epoch)
    deployed.run_for(JOIN_WINDOW_S + JOIN_RESPONSE_JITTER_S + 0.5)
    return joiner


def near_anchor(deployed):
    return next(
        nid for nid in deployed.agents if 0 < deployed.gradient.level(nid) <= 3
    )


@pytest.fixture(scope="module")
def faulted():
    return faulted_deployment()


@pytest.fixture(scope="module")
def coordinator(faulted):
    # One coordinator per deployment: the hash-chain epoch is global
    # state, so a second coordinator would start at the wrong epoch.
    return RefreshCoordinator(faulted)


def test_faults_actually_injected(faulted):
    got = dict(faulted.network.trace.counters)
    assert got["fault.drop"] > 0


def test_join_completes_under_faults(faulted):
    joiner = join_near(faulted, near_anchor(faulted))
    assert joiner.result is not None
    agent = finalize_join(faulted, joiner)
    assert agent.operational
    # Every learned key equals the true cluster key — a dropped or
    # duplicated JOIN_RESP must never leave a half-right keyring.
    for cid in agent.state.keyring.cluster_ids():
        assert agent.state.keyring.get(cid) == faulted.agents[cid].state.keyring.get(cid)
    agent.send_reading(b"faulted-join")
    faulted.run_for(30)
    assert any(r.data == b"faulted-join" for r in faulted.bs_agent.delivered)


def test_out_of_range_join_fails_cleanly_under_faults(faulted):
    joiner = join_near(faulted, near_anchor(faulted), offset=1e6)
    assert joiner.result is None
    assert joiner.preload.kmc.erased
    with pytest.raises(RuntimeError):
        finalize_join(faulted, joiner)


def test_refresh_rounds_survive_faults(faulted, coordinator):
    coordinator.refresh_once()
    coordinator.refresh_once()
    faulted.run_for(10)
    assert coordinator.epoch == 2
    # The data plane still works end-to-end on the refreshed keys.
    source = next(
        nid for nid in faulted.gradient.routable() if faulted.agents[nid].operational
    )
    faulted.agents[source].send_reading(b"post-refresh-data")
    faulted.run_for(30)
    assert any(r.data == b"post-refresh-data" for r in faulted.bs_agent.delivered)


def test_join_after_refresh_under_faults(faulted, coordinator):
    coordinator.refresh_once()
    faulted.run_for(5)
    epoch = coordinator.epoch
    assert epoch >= 1
    joiner = join_near(faulted, near_anchor(faulted), offset=0.4, hash_epoch=epoch)
    assert joiner.result is not None
    agent = finalize_join(faulted, joiner)
    # Keys must match the *current* (epoch-advanced) cluster keys, not
    # the deployment-time ones.
    for cid in agent.state.keyring.cluster_ids():
        assert agent.state.keyring.get(cid) == faulted.agents[cid].state.keyring.get(cid)


def test_faulted_join_sequence_is_deterministic():
    def run():
        deployed = faulted_deployment(seed=12)
        joiner = join_near(deployed, near_anchor(deployed))
        completed = joiner.result is not None
        if completed:
            finalize_join(deployed, joiner)
        return completed, dict(deployed.network.trace.counters)

    assert run() == run()
