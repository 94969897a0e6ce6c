"""The lifecycle runtime: run_churn end-to-end, drivers, convergence.

One small seeded scenario — continuous waypoint motion, 5% loss, one
join, one leave, one cluster revocation, one refresh round — exercises
every driver at a fraction of the CI acceptance scenario's horizon.
Everything asserted here is deterministic: loopback runs protocol time,
and motion/churn/faults all draw from named seeded streams.
"""

import pytest

from repro.protocol.config import ProtocolConfig
from repro.runtime.lifecycle import (
    ChurnDriver,
    ChurnScenario,
    ConvergenceTracker,
    MobilityDriver,
    run_churn,
)
from tests.conftest import small_deployment

SMALL = ChurnScenario(
    seed=3, n=24, density=9.0, duration_s=30.0, settle_s=8.0,
    joins=1, leaves=1, revokes=1, drop=0.05, duplicate=0.0, reorder=0.0,
    refresh_period_s=12.0, report_period_s=4.0, window_s=10.0,
)


@pytest.fixture(scope="module")
def result():
    return run_churn(SMALL)


def test_small_scenario_converges(result):
    assert result.converged
    assert result.reasons == ()
    assert result.delivery_ratio >= SMALL.min_delivery
    assert result.final_orphans == 0
    assert result.max_reconverge_s <= SMALL.max_reconverge_s
    assert result.max_orphan_dwell_s <= SMALL.max_orphan_dwell_s
    assert 0.0 < result.min_window_delivery <= 1.0


def test_churn_events_all_executed(result):
    assert result.joins_completed + result.joins_failed == SMALL.joins
    assert result.leaves == SMALL.leaves
    assert result.clusters_revoked == SMALL.revokes
    # Revoking a cluster decommissions every (keyless) member.
    assert result.nodes_revoked >= 1
    assert result.refresh_rounds >= 1
    assert result.sent > 0 and result.delivered > 0


def test_mobility_actually_changed_the_graph(result):
    assert result.mobility_steps > 0
    assert result.links_added > 0
    assert result.links_removed > 0


def test_lifecycle_telemetry_matches_driver_counts(result):
    assert result.counter("lifecycle.mobility.steps") == result.mobility_steps
    assert result.counter("lifecycle.mobility.links_added") == result.links_added
    assert result.counter("lifecycle.nodes.left") == result.leaves
    assert result.counter("lifecycle.nodes.joined") == result.joins_completed
    assert result.counter("lifecycle.clusters.revoked") == result.clusters_revoked
    assert result.counter("lifecycle.nodes.revoked") == result.nodes_revoked
    assert result.counter("lifecycle.refresh.rounds") == result.refresh_rounds
    assert result.counter("lifecycle.join.started") == SMALL.joins
    assert result.counter("never.incremented") == 0


def test_gateway_store_rode_along_and_stayed_bounded(result):
    # Every departed node (left + revoked + failed joins) was evicted
    # from the query plane; the store never serves more nodes than the
    # deployment has live members.
    departed = result.leaves + result.nodes_revoked + result.joins_failed
    assert result.store_evicted >= departed
    assert 0 < result.store_nodes <= SMALL.n + result.joins_completed


def test_same_seed_same_result():
    assert run_churn(SMALL) == run_churn(SMALL)


# -- scenario and driver validation ------------------------------------------


def test_scenario_validation():
    with pytest.raises(ValueError):
        ChurnScenario(mobility="teleport")
    with pytest.raises(ValueError):
        ChurnScenario(duration_s=0.0)
    with pytest.raises(ValueError):
        ChurnScenario(joins=-1)


def test_scenario_derived_properties():
    assert SMALL.churn_events == 3
    assert SMALL.churn_fraction == 3 / 24
    plan = SMALL.fault_plan()
    assert plan.defaults.drop == 0.05
    assert plan.seed == SMALL.seed


def test_acceptance_run_revocation_echoes_are_duplicates_not_forgeries():
    """Every revocation in the default run is genuine: re-receptions of
    its flood are echoes, and none is counted as a bad chain key."""
    result = run_churn(ChurnScenario())
    assert result.counter("drop.revoke_duplicate") > 0
    assert result.counter("drop.revoke_bad_chain") == 0


def test_protocol_config_reflects_reliability_switch():
    on = SMALL.protocol_config()
    assert on.hop_ack_enabled
    assert on.refresh_strategy == "rehash"
    off = ChurnScenario(reliability=False).protocol_config()
    assert not off.hop_ack_enabled


def test_acceptance_defaults_match_the_documented_gate():
    default = ChurnScenario()
    assert default.mobility == "waypoint"
    assert default.drop == 0.10
    assert default.churn_fraction >= 0.05
    assert default.min_delivery == 0.94


def test_driver_constructor_validation():
    with pytest.raises(ValueError):
        MobilityDriver(None, None, None, step_s=0.0)
    with pytest.raises(ValueError):
        ChurnDriver(None, None, None, window=(5.0, 1.0))
    with pytest.raises(ValueError):
        ChurnDriver(None, None, None, window=(-1.0, 1.0))
    with pytest.raises(ValueError):
        ConvergenceTracker(None, None, probe_s=0.0)


def test_is_orphan_classification():
    assert ConvergenceTracker.is_orphan(None)  # join still in flight
    deployed = small_deployment(
        n=40, seed=5, config=ProtocolConfig()
    )
    agent = next(a for a in deployed.agents.values() if a.operational)
    assert not ConvergenceTracker.is_orphan(agent)
    # Losing the cluster key (revocation) orphans the node.
    agent.state.keyring.remove(agent.state.cid)
    assert ConvergenceTracker.is_orphan(agent)


# -- join vs revocation race -------------------------------------------------


@pytest.mark.parametrize(
    "seed",
    [
        1007,  # node 41 joins cluster 36 just before the revocation flood clears it
        3009,  # node 42 joins cluster 11 after the revocation flood passed it
        27,  # node 41 stores revoked cluster 28's key as a neighbour during its join
    ],
)
def test_join_racing_a_revocation_leaves_no_orphan_and_no_revoked_key(seed, monkeypatch):
    from repro.runtime import lifecycle

    seen = {}
    deploy_live = lifecycle.deploy_live

    def capture(*args, **kwargs):
        out = deploy_live(*args, **kwargs)
        seen["deployed"] = out[0]
        return out

    monkeypatch.setattr(lifecycle, "deploy_live", capture)
    result = run_churn(ChurnScenario(seed=seed))
    deployed = seen["deployed"]
    revoked = deployed.bs_agent.revoked_cids
    assert result.clusters_revoked == 1 and revoked
    assert result.final_orphans == 0
    for nid in deployed.network.alive_sensor_ids():
        agent = deployed.agents.get(nid)
        assert not ConvergenceTracker.is_orphan(agent), nid
        assert not revoked.intersection(agent.state.keyring.cluster_ids()), nid
