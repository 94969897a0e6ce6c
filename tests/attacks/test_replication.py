"""Clone insertion: localization of stolen key material."""

import numpy as np
import pytest

from repro.attacks import Adversary, insert_clone
from tests.conftest import run_for, small_deployment


@pytest.fixture
def captured():
    deployed = small_deployment(seed=100)
    victim = next(
        nid for nid in deployed.agents if 0 < deployed.gradient.level(nid) < 5
    )
    cap = Adversary(deployed).capture(victim)
    return deployed, victim, cap


def far_corner(deployed, victim):
    positions = deployed.network.deployment.positions
    d = np.linalg.norm(positions - positions[victim - 1], axis=1)
    return positions[int(np.argmax(d))] + 1.0


def test_remote_clone_is_useless(captured):
    deployed, victim, cap = captured
    clone = insert_clone(deployed, cap, far_corner(deployed, victim))
    before = len(deployed.bs_agent.delivered)
    unknown_before = deployed.network.trace["drop.data_unknown_cluster"]
    clone.inject_reading(b"remote-bogus")
    run_for(deployed, 20)
    assert len(deployed.bs_agent.delivered) == before
    # Receivers near the clone do not even hold the stolen cluster's key.
    assert deployed.network.trace["drop.data_unknown_cluster"] > unknown_before


def test_local_clone_succeeds_until_evicted(captured):
    # The attack the eviction mechanism exists for: locally, stolen keys
    # are honored (the paper never claims otherwise).
    deployed, victim, cap = captured
    clone = insert_clone(
        deployed, cap, deployed.network.deployment.positions[victim - 1] + 0.3
    )
    clone.inject_reading(b"local-bogus")
    run_for(deployed, 20)
    accepted = [r for r in deployed.bs_agent.delivered if r.data == b"local-bogus"]
    assert len(accepted) == 1
    assert accepted[0].source == victim  # full impersonation

    # Eviction closes the window.
    deployed.bs_agent.revoke_clusters(list(cap.cluster_keys))
    run_for(deployed, 10)
    before = len(deployed.bs_agent.delivered)
    clone.inject_reading(b"post-eviction")
    run_for(deployed, 20)
    assert len(deployed.bs_agent.delivered) == before


def test_clone_cannot_reach_unheld_cluster(captured):
    deployed, victim, cap = captured
    clone = insert_clone(
        deployed, cap, deployed.network.deployment.positions[victim - 1]
    )
    unheld = next(
        cid
        for a in deployed.agents.values()
        if (cid := a.state.cid) not in cap.cluster_keys
    )
    with pytest.raises(ValueError, match="no stolen key"):
        clone.inject_reading(b"x", cid=unheld)


def test_clone_counts_injections(captured):
    deployed, victim, cap = captured
    clone = insert_clone(
        deployed, cap, deployed.network.deployment.positions[victim - 1]
    )
    clone.inject_reading(b"a")
    clone.inject_reading(b"b")
    assert clone.injected == 2
