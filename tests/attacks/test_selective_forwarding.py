"""Selective forwarding: multi-path redundancy limits the damage."""

import numpy as np

from repro.attacks import compromise_forwarders
from tests.conftest import run_for, small_deployment


def delivery_ratio(deployed, sources):
    sent = 0
    for src in sources:
        if deployed.gradient.level(src) > 0:
            deployed.agents[src].send_reading(b"probe")
            sent += 1
    run_for(deployed, 60)
    got = len({r.source for r in deployed.bs_agent.delivered})
    return got / sent if sent else 1.0


def test_wrapper_drops_configured_fraction():
    deployed = small_deployment(seed=130)
    rng = np.random.default_rng(0)
    interior = [
        nid for nid in deployed.agents if 0 < deployed.gradient.level(nid) < 4
    ][:5]
    wrappers = compromise_forwarders(deployed, interior, 1.0, rng)
    sources = [nid for nid in deployed.agents if deployed.gradient.level(nid) >= 4][:10]
    delivery_ratio(deployed, sources)
    assert sum(w.dropped for w in wrappers) > 0


def test_few_droppers_insignificant():
    # The paper's verdict: consequences are insignificant because nearby
    # nodes forward the same information.
    deployed = small_deployment(n=250, density=12.0, seed=131)
    rng = np.random.default_rng(1)
    interior = [
        nid for nid in deployed.agents if 1 < deployed.gradient.level(nid) < 5
    ]
    droppers = [int(x) for x in rng.choice(interior, size=8, replace=False)]
    compromise_forwarders(deployed, droppers, 1.0, rng)
    sources = [
        nid
        for nid in deployed.gradient.routable()
        if deployed.gradient.level(nid) >= 3 and nid not in droppers
    ][:20]
    ratio = delivery_ratio(deployed, sources)
    assert ratio >= 0.85


def test_control_run_without_droppers_delivers_fully():
    deployed = small_deployment(n=250, density=12.0, seed=131)
    sources = [nid for nid in deployed.agents if deployed.gradient.level(nid) >= 3][:20]
    assert delivery_ratio(deployed, sources) == 1.0


def test_non_data_traffic_passes_through_droppers():
    deployed = small_deployment(seed=132)
    rng = np.random.default_rng(2)
    all_ids = sorted(deployed.agents)
    compromise_forwarders(deployed, all_ids[:30], 1.0, rng)
    # A revocation flood must still reach everyone (droppers only drop DATA).
    deployed.bs_agent.revoke_clusters([999999])
    run_for(deployed, 10)
    for nid in all_ids:
        assert deployed.agents[nid].state.chain.index == 1


def test_drop_probability_validated():
    deployed = small_deployment(seed=133)
    import pytest
    from repro.attacks import SelectiveForwarder

    with pytest.raises(ValueError):
        SelectiveForwarder(deployed.agents[1], 1.5, np.random.default_rng(0))
