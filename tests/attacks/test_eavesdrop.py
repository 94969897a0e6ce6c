"""Passive eavesdropping and confidentiality measurement."""

from repro.attacks import Adversary, Eavesdropper
from repro.protocol.config import ProtocolConfig
from tests.conftest import run_for, small_deployment


def traffic(deployed, n_sources=5):
    sources = deployed.gradient.routable()
    for src in sources[:n_sources]:
        deployed.agents[src].send_reading(b"secret-reading")
    run_for(deployed, 30)
    return sources[:n_sources]


def test_eavesdropper_hears_all_data_traffic():
    deployed = small_deployment(seed=140)
    ear = Eavesdropper(deployed.network, deployed.config)
    traffic(deployed)
    assert len(ear.data_frames()) == deployed.network.trace["tx.data"]


def test_no_keys_nothing_readable():
    deployed = small_deployment(seed=141)
    ear = Eavesdropper(deployed.network, deployed.config)
    traffic(deployed)
    assert ear.readable_hop_payloads({}) == []
    assert ear.readable_reading_fraction({}) == 0.0


def test_stolen_cluster_keys_open_hop_layer_only():
    # With Step 1 on, a captured cluster key exposes the hop layer but the
    # reading itself stays encrypted under K_i.
    deployed = small_deployment(seed=142)
    ear = Eavesdropper(deployed.network, deployed.config)
    traffic(deployed)
    cap = Adversary(deployed).capture(sorted(deployed.agents)[0])
    payloads = ear.readable_hop_payloads(cap.cluster_keys)
    # Something near the victim is decryptable at the hop layer...
    # (traffic may or may not pass its clusters; use network-wide capture
    # to make the assertion deterministic)
    adv = Adversary(deployed)
    for nid in sorted(deployed.agents)[:40]:
        adv.capture(nid)
    payloads = ear.readable_hop_payloads(adv.all_cluster_keys())
    assert payloads
    # ...but zero readings are exposed: Step 1 protects them.
    assert ear.readable_reading_fraction(adv.all_cluster_keys()) == 0.0


def test_step1_off_exposes_readings_to_key_holders():
    deployed = small_deployment(
        seed=143, config=ProtocolConfig(end_to_end_encryption=False)
    )
    ear = Eavesdropper(deployed.network, deployed.config)
    traffic(deployed)
    adv = Adversary(deployed)
    for nid in sorted(deployed.agents)[:40]:
        adv.capture(nid)
    assert ear.readable_reading_fraction(adv.all_cluster_keys()) > 0.0
