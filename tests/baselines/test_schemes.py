"""Every scheme through the one KeySchemeModel interface.

Global key and full pairwise are closed-form; LEAP and Eschenauer–Gligor
are live deployments answering from their agents' key state, on the same
field (seed 5) as the closed-form schemes' deployment.
"""

import math

import numpy as np
import pytest

from repro.baselines import (
    FullPairwiseScheme,
    GlobalKeyScheme,
    all_links,
    link_fraction,
    node_ids,
)
from repro.leap import run_leap_bootstrap
from repro.leap.setup import capture_leap_node
from repro.protocol.setup import deploy
from repro.randkp import expected_share_probability, run_randkp_bootstrap
from repro.sim.rng import RngManager
from repro.sim.topology import Deployment

N, DENSITY, SEED = 250, 10.0, 5


@pytest.fixture(scope="module")
def deployment():
    return Deployment.random_uniform(N, DENSITY, RngManager(SEED).stream("deployment"))


@pytest.fixture(scope="module")
def leap():
    return run_leap_bootstrap(N, DENSITY, seed=SEED)


@pytest.fixture(scope="module")
def flooded(leap):
    """The same field with node ``ids[5]`` flooded by every real id."""
    ids = node_ids(leap.deployment)
    return run_leap_bootstrap(N, DENSITY, seed=SEED, flood_victim=ids[5], flood_ids=ids)


def _degree(deployment, node):
    return len(deployment.neighbors[node_ids(deployment).index(node)])


def test_all_links_undirected_unique(deployment):
    links = all_links(deployment)
    assert all(u < v for u, v in links)
    assert len(links) == len(set(links))
    assert {x for link in links for x in link} <= set(node_ids(deployment))
    # Handshake identity: twice the link count equals the degree sum.
    assert 2 * len(links) == sum(len(nb) for nb in deployment.neighbors)


def test_rival_schemes_share_the_deploy_topology():
    # The comparison tables put every scheme on one field: deploy and the
    # live LEAP/E-G bootstraps must place every node identically.
    deployed, _ = deploy(120, DENSITY, seed=SEED)
    leap = run_leap_bootstrap(120, DENSITY, seed=SEED)
    eg = run_randkp_bootstrap(120, DENSITY, seed=SEED)
    reference = deployed.network
    for other in (leap.network, eg.network):
        assert np.array_equal(
            other.deployment.positions, reference.deployment.positions
        )
        for nid in node_ids(reference.deployment):
            assert np.array_equal(other.node(nid).position, reference.node(nid).position)
            assert sorted(other.adjacency(nid)) == sorted(reference.adjacency(nid))


class TestGlobalKey:
    def test_storage_and_broadcast(self, deployment):
        scheme = GlobalKeyScheme(deployment)
        assert scheme.keys_per_node() == [1] * deployment.n
        assert scheme.broadcast_transmissions(node_ids(deployment)[0]) == 1

    def test_single_capture_breaks_everything(self, deployment):
        scheme = GlobalKeyScheme(deployment)
        assert scheme.resilience([node_ids(deployment)[0]]) == 1.0

    def test_no_capture_no_compromise(self, deployment):
        scheme = GlobalKeyScheme(deployment)
        assert scheme.captured_material([]) == set()
        assert scheme.resilience([]) == 0.0


class TestFullPairwise:
    def test_storage_is_n_minus_1(self, deployment):
        scheme = FullPairwiseScheme(deployment)
        assert scheme.keys_stored(node_ids(deployment)[0]) == deployment.n - 1

    def test_broadcast_costs_degree(self, deployment):
        scheme = FullPairwiseScheme(deployment)
        index = int(np.argmax([len(nb) for nb in deployment.neighbors]))
        node = node_ids(deployment)[index]
        assert scheme.broadcast_transmissions(node) == len(deployment.neighbors[index])

    def test_perfect_resilience(self, deployment):
        scheme = FullPairwiseScheme(deployment)
        assert scheme.resilience(list(node_ids(deployment)[:3])) == 0.0


class TestEschenauerGligor:
    def test_connectivity_matches_theory(self):
        eg = run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=1000, ring_size=30)
        expected = expected_share_probability(1000, 30)
        direct = link_fraction(eg.deployment, eg.shared_key_link)
        assert math.isclose(direct, expected, abs_tol=0.05)

    def test_theory_edge_cases(self):
        assert expected_share_probability(10, 6) == 1.0  # pigeonhole
        assert expected_share_probability(10**6, 1) < 1e-5

    def test_rings_have_requested_size(self):
        eg = run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=500, ring_size=20)
        assert all(len(a.ring) == 20 for a in eg.agents.values())
        node = node_ids(eg.deployment)[0]
        assert eg.keys_stored(node) == 20 + len(eg.agents[node].link_keys)

    def test_resilience_grows_with_captures(self):
        eg = run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=1000, ring_size=40)
        ids = node_ids(eg.deployment)
        assert eg.resilience(list(ids[:2])) < eg.resilience(list(ids[:20]))

    def test_compromise_is_not_localized(self):
        eg = run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=500, ring_size=40)
        profile = eg.compromise_by_distance(node_ids(eg.deployment)[N // 2])
        distant = [f for d, f in profile.items() if d >= 4]
        assert distant and max(distant) > 0.0  # exposure reaches far links

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_randkp_bootstrap(10, 5.0, pool_size=10, ring_size=11)
        with pytest.raises(ValueError):
            run_randkp_bootstrap(10, 5.0, pool_size=0)
        with pytest.raises(ValueError):
            run_randkp_bootstrap(10, 5.0, ring_size=0)


class TestQComposite:
    # Chan–Perrig–Song q-composite is the live E-G bootstrap with q > 1.

    def test_q_reduces_connectivity(self):
        eg, qc = (
            run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=1000, ring_size=40, q=q)
            for q in (1, 2)
        )
        direct = [link_fraction(d.deployment, d.shared_key_link) for d in (eg, qc)]
        assert direct[1] < direct[0]

    def test_q_improves_small_scale_resilience(self):
        eg, qc = (
            run_randkp_bootstrap(N, DENSITY, seed=SEED, pool_size=1000, ring_size=60, q=q)
            for q in (1, 3)
        )
        captured = list(node_ids(eg.deployment)[:3])
        assert qc.resilience(captured) <= eg.resilience(captured)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            run_randkp_bootstrap(10, 5.0, pool_size=100, ring_size=10, q=0)


class TestLeap:
    # The default radio is lossless: every node hears every neighbor's
    # HELLO and cluster key, so the live counts are exact.

    def test_storage_proportional_to_degree(self, leap):
        for node, keys in zip(node_ids(leap.deployment), leap.keys_per_node()):
            assert keys == 2 + 2 * _degree(leap.deployment, node)

    def test_broadcast_is_one(self, leap):
        assert all(leap.broadcast_transmissions(n) == 1 for n in node_ids(leap.deployment))

    def test_bootstrap_costs_degree(self, leap, deployment):
        for node in node_ids(leap.deployment):
            assert leap.bootstrap_transmissions(node) == 1 + _degree(leap.deployment, node)
        # Predistribution schemes bootstrap with at most one broadcast.
        assert GlobalKeyScheme(deployment).bootstrap_transmissions(1) == 0

    def test_compromise_is_local_without_flood(self, leap):
        profile = leap.compromise_by_distance(node_ids(leap.deployment)[N // 2])
        assert all(f == 0.0 for d, f in profile.items() if d >= 3)
        assert profile[1] > 0.0

    def test_hello_flood_blows_up_storage(self, leap, flooded):
        victim = node_ids(leap.deployment)[5]
        assert flooded.keys_stored(victim) > leap.keys_stored(victim)
        assert len(capture_leap_node(flooded, victim)["pairwise"]) == N - 1

    def test_flood_does_not_affect_others(self, leap, flooded):
        ids = node_ids(leap.deployment)
        # Nodes within radio range of the flooding transmitter hear the
        # forged HELLOs too; every node out of its range is untouched.
        attacker = max(flooded.network.nodes)
        in_range = set(flooded.network.adjacency(attacker))
        untouched = [node for node in ids if node not in in_range]
        assert len(untouched) > N - 30
        for node in untouched:
            assert flooded.keys_stored(node) == leap.keys_stored(node)
