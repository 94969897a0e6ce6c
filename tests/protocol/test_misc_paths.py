"""Coverage of less-traveled paths: battery death, BS key installation,
API recluster strategy, empty workloads."""

import pytest

from repro import ProtocolConfig, SecureSensorNetwork
from repro.sim.energy import EnergyMeter, EnergyModel
from repro.workloads import PoissonEvents
from tests.conftest import run_for, small_deployment


def test_node_dies_when_battery_depletes():
    deployed = small_deployment(n=60, density=8.0, seed=230)
    nid = sorted(deployed.agents)[0]
    node = deployed.network.node(nid)
    # Swap in a depleted battery; the next reception kills the node.
    node.energy = EnergyMeter(EnergyModel(), capacity=1e-9)
    node.energy.charge_rx(100)
    neighbor = next(x for x in deployed.network.adjacency(nid) if x in deployed.agents)
    deployed.network.node(neighbor).broadcast(b"\x63any-frame")
    run_for(deployed, 5)
    assert not node.alive


def test_bs_rejects_unknown_cluster_after_key_installation():
    deployed = small_deployment(n=80, density=10.0, seed=231)
    bs = deployed.bs_agent
    known_cid = next(iter(deployed.agents.values())).state.cid
    bs.install_cluster_keys({known_cid: bytes(16)})
    with pytest.raises(KeyError):
        bs.cluster_key(999_999)
    assert bs.cluster_key(known_cid) == bytes(16)


def test_api_recluster_strategy_roundtrip():
    ssn = SecureSensorNetwork.deploy(
        n=100, density=10.0, seed=232,
        config=ProtocolConfig(refresh_strategy="recluster"),
    )
    assert ssn.refresh_keys() == 1
    assert ssn._hash_epochs() == 0  # recluster epochs are not hash epochs
    src = ssn.deployed.gradient.routable()[0]
    ssn.send_reading(src, b"api-recluster")
    ssn.run(30)
    assert any(r.data == b"api-recluster" for r in ssn.readings())


def test_api_reelect_strategy_roundtrip():
    ssn = SecureSensorNetwork.deploy(
        n=100, density=10.0, seed=233,
        config=ProtocolConfig(refresh_strategy="reelect"),
    )
    assert ssn.refresh_keys() == 1
    src = next(
        n
        for n in ssn.node_ids()
        if ssn.deployed.gradient.level(n) > 0
        and ssn.agent(n).state.keyring.has(ssn.agent(n).state.cid)
    )
    ssn.send_reading(src, b"api-reelect")
    ssn.run(30)
    assert any(r.data == b"api-reelect" for r in ssn.readings())


def test_poisson_workload_with_no_routable_sources():
    deployed = small_deployment(n=40, density=8.0, seed=234)
    deployed.gradient.levels[1:] = [-1] * (len(deployed.gradient.levels) - 1)  # a severed field
    wl = PoissonEvents(deployed, rate_per_s=1.0, duration_s=5.0)
    wl.start()  # must not raise
    run_for(deployed, 10)
    assert wl.sent == []
    assert wl.delivery_ratio() == 1.0  # vacuous


def test_zero_forward_jitter_still_delivers():
    deployed = small_deployment(
        n=100, density=10.0, seed=235, config=ProtocolConfig(forward_jitter_s=0.0)
    )
    src = next(nid for nid in deployed.agents if deployed.gradient.level(nid) > 1)
    deployed.agents[src].send_reading(b"no-jitter")
    run_for(deployed, 30)
    assert any(r.data == b"no-jitter" for r in deployed.bs_agent.delivered)


def test_forward_jitter_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(forward_jitter_s=-0.1)
