"""The SecureSensorNetwork facade."""

import pytest

from repro import ProtocolConfig, SecureSensorNetwork
from repro.protocol.aggregation import DuplicateEventFilter
from repro.sim.network import Network


@pytest.fixture(scope="module")
def ssn():
    # Module-scoped read-mostly instance; mutating tests build their own.
    return SecureSensorNetwork.deploy(n=150, density=10.0, seed=80)


def test_deploy_exposes_metrics(ssn):
    m = ssn.setup_metrics
    assert m.n == 150
    assert 0 < m.head_fraction < 1
    assert m.mean_keys_per_node >= 1


def test_node_ids(ssn):
    ids = ssn.node_ids()
    assert len(ids) == 150
    assert ids == sorted(ids)


def test_agent_accessor(ssn):
    nid = ssn.node_ids()[0]
    assert ssn.agent(nid).state.node_id == nid


def test_send_and_receive():
    ssn = SecureSensorNetwork.deploy(n=150, density=10.0, seed=81)
    src = ssn.deployed.gradient.routable()[0]
    ssn.send_reading(src, b"api-test")
    ssn.run(30)
    assert any(r.data == b"api-test" for r in ssn.readings())


def test_from_network():
    net = Network.build(100, 10.0, seed=82)
    ssn = SecureSensorNetwork.from_network(net, ProtocolConfig(tag_len=4))
    assert ssn.config.tag_len == 4
    assert ssn.network is net


def test_revoke_node_returns_cids():
    ssn = SecureSensorNetwork.deploy(n=150, density=10.0, seed=83)
    victim = ssn.node_ids()[7]
    cids = ssn.revoke_node(victim)
    assert cids
    assert ssn.agent(victim).state.stored_key_count() == 0


def test_refresh_epoch_tracking():
    ssn = SecureSensorNetwork.deploy(n=100, density=10.0, seed=84)
    assert ssn.refresh_epoch == 0
    assert ssn.refresh_keys() == 1
    assert ssn.refresh_epoch == 1


def test_enable_fusion_gives_each_node_its_own_filter():
    ssn = SecureSensorNetwork.deploy(
        n=100, density=10.0, seed=85,
        config=ProtocolConfig(end_to_end_encryption=False),
    )
    ssn.enable_fusion(DuplicateEventFilter)
    filters = [ssn.agent(nid).fusion for nid in ssn.node_ids()]
    assert all(f is not None for f in filters)
    assert len({id(f) for f in filters}) == len(filters)


def test_add_node_out_of_range_raises():
    ssn = SecureSensorNetwork.deploy(n=100, density=10.0, seed=86)
    with pytest.raises(RuntimeError):
        ssn.add_node([1e9, 1e9])
