"""The data plane: end-to-end delivery, drops, replay/freshness behaviour."""

import pytest

from repro.protocol.agent import ProtocolError
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import deploy, provision
from repro.sim.network import Network
from tests.conftest import run_for, small_deployment


def routable_sources(deployed, count=5):
    """Pick well-spread sources that have a route to the base station."""
    ids = deployed.gradient.routable()
    step = max(1, len(ids) // count)
    return ids[::step][:count]


def test_encrypted_readings_reach_bs(deployed):
    sources = routable_sources(deployed)
    for i, src in enumerate(sources):
        deployed.agents[src].send_reading(f"r{i}".encode())
    run_for(deployed, 30)
    got = {(r.source, r.data) for r in deployed.bs_agent.delivered}
    assert got == {(src, f"r{i}".encode()) for i, src in enumerate(sources)}
    assert all(r.was_encrypted for r in deployed.bs_agent.delivered)


def test_plaintext_mode_delivers(deployed_plaintext):
    deployed = deployed_plaintext
    src = routable_sources(deployed, 1)[0]
    deployed.agents[src].send_reading(b"visible")
    run_for(deployed, 30)
    assert deployed.bs_agent.delivered[0].data == b"visible"
    assert not deployed.bs_agent.delivered[0].was_encrypted


def test_multiple_readings_from_one_source():
    deployed = small_deployment(seed=9)
    src = routable_sources(deployed, 1)[0]
    for i in range(5):
        deployed.agents[src].send_reading(f"m{i}".encode())
    run_for(deployed, 60)
    data = {r.data for r in deployed.bs_agent.readings_from(src)}
    # All five arrive (forwarding jitter may reorder them in flight, and
    # the BS's counter window tolerates out-of-order Step-1 counters).
    assert data == {f"m{i}".encode() for i in range(5)}


def test_send_before_setup_raises():
    net = Network.build(50, 10.0, seed=1)
    dp = provision(net)
    with pytest.raises(ProtocolError, match="setup"):
        dp.agents[1].send_reading(b"too-early")


def test_send_without_cluster_key_raises(deployed):
    agent = next(iter(deployed.agents.values()))
    agent.state.keyring.remove(agent.state.cid)
    agent.state.cid = None
    with pytest.raises(ProtocolError, match="cluster key"):
        agent.send_reading(b"x")


def test_one_transmission_per_broadcast(deployed):
    # The headline energy property: originating a reading is exactly one
    # radio transmission by the source.
    src = routable_sources(deployed, 1)[0]
    node = deployed.network.node(src)
    sent_before = node.frames_sent
    deployed.agents[src].send_reading(b"one-tx")
    assert node.frames_sent == sent_before + 1


def test_forwarders_translate_between_clusters(deployed):
    # A delivered multi-hop reading must have crossed cluster boundaries:
    # at least one forwarder belongs to a different cluster than the source.
    sources = [nid for nid in deployed.agents if deployed.gradient.level(nid) >= 3]
    src = sources[0]
    deployed.agents[src].send_reading(b"multihop")
    run_for(deployed, 30)
    assert any(r.source == src for r in deployed.bs_agent.delivered)
    forwarder_cids = {
        a.state.cid for a in deployed.agents.values() if a.forwarded_count > 0
    }
    assert len(forwarder_cids) >= 2


def test_unroutable_node_cannot_deliver():
    # Sparse network: some nodes have no path to the BS.
    deployed, _ = deploy(40, 2.0, seed=3)
    unroutable = [nid for nid in deployed.agents if deployed.gradient.level(nid) < 0]
    if not unroutable:
        pytest.skip("all nodes routable at this seed")
    src = unroutable[0]
    deployed.agents[src].send_reading(b"stranded")
    run_for(deployed, 30)
    assert not any(r.source == src for r in deployed.bs_agent.delivered)


def test_tampered_frame_dropped(deployed):
    # Flip a ciphertext bit mid-flight via a malicious "repeater".
    src = routable_sources(deployed, 1)[0]
    trace = deployed.network.trace
    agent = deployed.agents[src]
    from repro.protocol.forwarding import build_inner, wrap_hop

    st = agent.state
    c1 = build_inner(src, b"data", st.preload.node_key.material, st.next_e2e_counter(),
                     deployed.config.aead)
    frame = bytearray(
        wrap_hop(st.keyring.get(st.cid).material, st.cid, src, st.next_hop_seq(),
                 deployed.gradient.level(src), deployed.network.transport.now, c1,
                 deployed.config.aead)
    )
    frame[-1] ^= 1
    before = trace["drop.data_bad_auth"]
    deployed.network.node(src).broadcast(bytes(frame))
    run_for(deployed, 10)
    assert trace["drop.data_bad_auth"] > before
    assert not deployed.bs_agent.delivered


def test_stale_frame_dropped():
    config = ProtocolConfig(freshness_window_s=5.0)
    deployed = small_deployment(config=config, seed=4)
    run_for(deployed, 20)  # advance the clock so a 10s-old τ is valid history
    src = routable_sources(deployed, 1)[0]
    agent = deployed.agents[src]
    from repro.protocol.forwarding import build_inner, wrap_hop

    st = agent.state
    c1 = build_inner(src, b"old", st.preload.node_key.material, st.next_e2e_counter(),
                     config.aead)
    stale_tau = deployed.network.transport.now - 10.0
    frame = wrap_hop(st.keyring.get(st.cid).material, st.cid, src, st.next_hop_seq(),
                     deployed.gradient.level(src), stale_tau, c1, config.aead)
    trace = deployed.network.trace
    before = trace["drop.data_stale"]
    deployed.network.node(src).broadcast(frame)
    run_for(deployed, 10)
    assert trace["drop.data_stale"] > before


def test_trace_counts_duplicates(deployed):
    src = routable_sources(deployed, 1)[0]
    deployed.agents[src].send_reading(b"dup-check")
    run_for(deployed, 30)
    # Gradient flooding guarantees some duplicate suppression activity in
    # any non-trivial topology.
    assert deployed.network.trace["drop.data_duplicate"] > 0
