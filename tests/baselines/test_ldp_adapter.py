"""The live-protocol adapter behind the scheme interface."""

import pytest

from repro.baselines import LdpSchemeModel, node_ids
from repro.protocol.setup import deploy


@pytest.fixture(scope="module")
def adapted():
    deployed, _ = deploy(200, 10.0, seed=12)
    return deployed, LdpSchemeModel(deployed)


def test_keys_match_live_keyrings(adapted):
    deployed, scheme = adapted
    for node in node_ids(deployed.network.deployment):
        agent = deployed.agents[node]
        assert scheme.keys_stored(node) == agent.state.stored_key_count()


def test_all_links_secured(adapted):
    _, scheme = adapted
    assert scheme.secured_link_fraction() == 1.0


def test_broadcast_is_one(adapted):
    _, scheme = adapted
    assert scheme.broadcast_transmissions(1) == 1


def test_captured_material_is_keyring(adapted):
    deployed, scheme = adapted
    material = scheme.captured_material([4])
    agent = deployed.agents[4]
    assert material == {("cluster", cid) for cid in agent.state.keyring.cluster_ids()}


def test_compromise_is_localized(adapted):
    _, scheme = adapted
    profile = scheme.compromise_by_distance(101)
    # Keys a node holds cover clusters whose members sit within a couple of
    # hops; beyond ~3 hops nothing is compromised.
    assert all(f == 0.0 for d, f in profile.items() if d >= 4)
    assert profile.get(1, 0.0) > 0.0  # but the immediate neighborhood falls


def test_resilience_small_and_bounded(adapted):
    _, scheme = adapted
    r = scheme.resilience([1])
    assert 0.0 <= r < 0.2
