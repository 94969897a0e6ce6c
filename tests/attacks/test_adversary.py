"""Node capture and the timing model."""

from repro.attacks import Adversary, CaptureTimingModel
from repro.protocol.config import ProtocolConfig
from tests.conftest import small_deployment


def test_capture_after_setup_yields_no_master_key():
    deployed = small_deployment(seed=90)
    cap = Adversary(deployed).capture(sorted(deployed.agents)[0])
    assert cap.master_key is None
    assert not cap.got_master_key


def test_capture_yields_exactly_keyring_contents():
    deployed = small_deployment(seed=91)
    victim = sorted(deployed.agents)[4]
    agent = deployed.agents[victim]
    cap = Adversary(deployed).capture(victim)
    assert set(cap.cluster_keys) == set(agent.state.keyring.cluster_ids())
    for cid, key in cap.cluster_keys.items():
        assert key == agent.state.keyring.get(cid).material
    assert cap.node_key == agent.state.preload.node_key.material
    assert cap.own_cid == agent.state.cid


def test_capture_includes_ram_counters():
    deployed = small_deployment(seed=92)
    victim = deployed.gradient.routable()[0]
    deployed.agents[victim].send_reading(b"x")
    cap = Adversary(deployed).capture(victim)
    assert cap.e2e_counter == 1
    assert cap.hop_seq >= 1


def test_destroy_kills_node():
    deployed = small_deployment(seed=93)
    victim = sorted(deployed.agents)[0]
    Adversary(deployed).capture(victim, destroy=True)
    assert not deployed.network.node(victim).alive


def test_multi_capture_union():
    deployed = small_deployment(seed=94)
    adv = Adversary(deployed)
    v1, v2 = sorted(deployed.agents)[:2]
    adv.capture(v1)
    adv.capture(v2)
    keys = adv.all_cluster_keys()
    assert set(deployed.agents[v1].state.keyring.cluster_ids()) <= set(keys)
    assert set(deployed.agents[v2].state.keyring.cluster_ids()) <= set(keys)
    assert 0 < adv.exposed_cluster_fraction() < 1


def test_timing_model():
    config = ProtocolConfig()
    timing = CaptureTimingModel(seconds_to_compromise=60.0)
    # The paper's assumption, checked against our actual setup duration.
    assert not timing.can_extract_km(config.setup_end_s)
    assert CaptureTimingModel(seconds_to_compromise=1.0).can_extract_km(config.setup_end_s)


def test_revoked_keys_are_not_capturable():
    deployed = small_deployment(seed=95)
    victim = sorted(deployed.agents)[5]
    cids = list(deployed.agents[victim].state.keyring.cluster_ids())
    deployed.bs_agent.revoke_clusters(cids)
    deployed.network.transport.run(until=deployed.network.transport.now + 10)
    cap = Adversary(deployed).capture(victim)
    assert cap.cluster_keys == {}  # nothing left in memory to steal
