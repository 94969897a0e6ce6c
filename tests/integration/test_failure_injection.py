"""Failure injection: lossy links, collisions, node death, desync."""

from repro.protocol import base_station
from repro.protocol.setup import deploy, run_key_setup
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.sim.network import Network
from repro.sim.radio import RadioConfig
from tests.conftest import run_for


def lossy_network(n=150, density=12.0, seed=0, loss=0.1, collisions=False):
    """Key setup on a field whose links drop each reception with ``loss``."""
    return deploy(
        n, density, seed=seed,
        radio_config=RadioConfig(model_collisions=collisions),
        fault_plan=FaultPlan(seed=seed, defaults=LinkFaults(drop=loss)),
    )


def test_setup_survives_moderate_loss():
    deployed, metrics = lossy_network(loss=0.15, seed=210)
    # Every node still ends up decided with at least its own cluster key.
    for agent in deployed.agents.values():
        assert agent.state.decided
        assert agent.state.stored_key_count() >= 1
    # Lost HELLOs mean more (smaller) clusters than the lossless run, but
    # the structure stays sound for the nodes that did join.
    assert metrics.cluster_count > 0


def test_cluster_consistency_under_loss():
    # Whatever clusters form under loss, a member's stored key must always
    # match its head's key (consistency even when coverage degrades).
    deployed, _ = lossy_network(loss=0.2, seed=211)
    for nid, agent in deployed.agents.items():
        cid = agent.state.cid
        head = deployed.agents.get(cid)
        assert head is not None
        assert agent.state.keyring.get(cid) == head.state.preload.cluster_key


def test_data_plane_tolerates_loss_with_retries():
    deployed, _ = lossy_network(loss=0.1, seed=212)
    src = deployed.gradient.routable()[0]
    # Send several; with multi-path forwarding and 10% loss, at least one
    # copy of at least one message should arrive.
    for _ in range(5):
        deployed.agents[src].send_reading(b"lossy")
    run_for(deployed, 60)
    assert any(r.source == src for r in deployed.bs_agent.delivered)


def test_setup_with_collisions_enabled():
    deployed, metrics = lossy_network(loss=0.0, collisions=True, seed=213)
    for agent in deployed.agents.values():
        assert agent.state.decided
    # Collisions occurred (synchronized link phase) but the protocol held.
    assert deployed.network.trace["net.frames_collided"] > 0
    assert metrics.cluster_count > 0


def test_node_death_reroutes_traffic():
    net = Network.build(200, 14.0, seed=214)
    deployed, _ = run_key_setup(net)
    src = next(nid for nid in deployed.agents if deployed.gradient.level(nid) >= 3)
    # Kill one forwarder on the gradient path; density 14 leaves others.
    casualty = next(
        nid for nid, a in deployed.agents.items()
        if deployed.gradient.level(nid) == 1 and nid != src
    )
    deployed.network.node(casualty).die()
    deployed.assign_gradient()
    deployed.agents[src].send_reading(b"around-the-gap")
    run_for(deployed, 60)
    assert any(r.data == b"around-the-gap" for r in deployed.bs_agent.delivered)


def test_counter_desync_recovers_within_window(monkeypatch):
    monkeypatch.setattr(base_station, "COUNTER_WINDOW", 16)
    net = Network.build(120, 10.0, seed=215)
    deployed, _ = run_key_setup(net)
    src = deployed.gradient.routable()[0]
    agent = deployed.agents[src]
    for _ in range(15):  # 15 < window of 16
        agent.state.next_e2e_counter()
    agent.send_reading(b"recovered")
    run_for(deployed, 30)
    assert any(r.data == b"recovered" for r in deployed.bs_agent.delivered)


def test_dead_node_sends_nothing():
    net = Network.build(100, 10.0, seed=216)
    deployed, _ = run_key_setup(net)
    nid = sorted(deployed.agents)[0]
    deployed.network.node(nid).die()
    deployed.agents[nid].send_reading(b"ghost")  # agent API tolerates it
    run_for(deployed, 20)
    assert not any(r.source == nid for r in deployed.bs_agent.delivered)
