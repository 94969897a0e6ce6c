"""Replay attacks on the data plane."""

from repro.attacks import ReplayAttacker
from tests.conftest import run_for, small_deployment


def setup_with_traffic(seed=110):
    deployed = small_deployment(seed=seed)
    src = next(nid for nid in deployed.agents if deployed.gradient.level(nid) > 1)
    attacker = ReplayAttacker(
        deployed, deployed.network.deployment.positions[src - 1] + 0.2
    )
    deployed.agents[src].send_reading(b"legit-1")
    deployed.agents[src].send_reading(b"legit-2")
    run_for(deployed, 20)
    return deployed, src, attacker


def test_attacker_records_data_frames():
    _, _, attacker = setup_with_traffic()
    assert len(attacker.recorded) > 0


def test_replays_never_reach_bs_twice():
    deployed, src, attacker = setup_with_traffic(seed=111)
    delivered_before = len(deployed.bs_agent.delivered)
    attacker.replay_all()
    run_for(deployed, 20)
    assert len(deployed.bs_agent.delivered) == delivered_before


def test_replays_are_dropped_by_seq_or_staleness():
    deployed, src, attacker = setup_with_traffic(seed=112)
    trace = deployed.network.trace
    drops_before = (
        trace["drop.data_replay"] + trace["drop.data_stale"] + trace["drop.data_duplicate"]
    )
    n = attacker.replay_all()
    run_for(deployed, 20)
    drops_after = (
        trace["drop.data_replay"] + trace["drop.data_stale"] + trace["drop.data_duplicate"]
    )
    assert n > 0
    assert drops_after > drops_before


def test_delayed_replay_hits_freshness_window():
    deployed, src, attacker = setup_with_traffic(seed=113)
    trace = deployed.network.trace
    # Wait out the freshness window before replaying.
    run_for(deployed, deployed.config.freshness_window_s + 5)
    stale_before = trace["drop.data_stale"]
    attacker.replay_all()
    run_for(deployed, 20)
    assert trace["drop.data_stale"] > stale_before
