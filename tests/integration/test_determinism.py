"""Bit-level reproducibility: same seed, same everything.

A simulation study is only as good as its reproducibility; these tests
pin the property that two runs with the same seed produce identical
protocol outcomes (and different seeds do not).
"""

from repro.protocol.setup import deploy
from tests.conftest import run_for


def run_once(seed: int):
    deployed, metrics = deploy(120, 10.0, seed=seed)
    sources = deployed.gradient.routable()[:5]
    for src in sources:
        deployed.agents[src].send_reading(b"det")
    run_for(deployed, 30)
    return (
        metrics.clusters,
        dict(deployed.network.trace.counters),
        [(r.time, r.source, r.data) for r in deployed.bs_agent.delivered],
        deployed.network.trace["net.frames_sent"],
    )


def test_same_seed_identical_runs():
    assert run_once(77) == run_once(77)


def test_different_seeds_differ():
    a = run_once(77)
    b = run_once(78)
    assert a[0] != b[0]


def test_key_material_reproducible():
    d1, _ = deploy(50, 8.0, seed=9)
    d2, _ = deploy(50, 8.0, seed=9)
    for nid in d1.agents:
        assert (
            d1.agents[nid].state.preload.node_key.material
            == d2.agents[nid].state.preload.node_key.material
        )
    assert d1.registry.chain.commitment == d2.registry.chain.commitment


def test_key_material_differs_across_seeds():
    d1, _ = deploy(50, 8.0, seed=9)
    d2, _ = deploy(50, 8.0, seed=10)
    nid = sorted(d1.agents)[0]
    assert (
        d1.agents[nid].state.preload.node_key.material
        != d2.agents[nid].state.preload.node_key.material
    )
