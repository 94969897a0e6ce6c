"""Base-station behaviour: counter recovery, replay, key derivation."""

from repro.protocol.config import COUNTER_WINDOW
from tests.conftest import run_for, small_deployment


def pick_source(deployed):
    return deployed.gradient.routable()[0]


def test_cluster_key_derivation_matches_agents():
    deployed = small_deployment(seed=60)
    for nid, agent in deployed.agents.items():
        cid = agent.state.cid
        assert (
            deployed.bs_agent.cluster_key(cid)
            == agent.state.keyring.get(cid).material
        )


def test_counter_resync_after_lost_messages():
    deployed = small_deployment(seed=61)
    src = pick_source(deployed)
    agent = deployed.agents[src]
    # Burn 10 counters without the BS ever seeing them ("lost" messages).
    for _ in range(10):
        agent.state.next_e2e_counter()
    agent.send_reading(b"after-gap")
    run_for(deployed, 30)
    assert any(r.data == b"after-gap" for r in deployed.bs_agent.delivered)


def test_desync_beyond_window_rejected():
    deployed = small_deployment(seed=62)
    src = pick_source(deployed)
    agent = deployed.agents[src]
    for _ in range(COUNTER_WINDOW + 5):
        agent.state.next_e2e_counter()
    agent.send_reading(b"too-far-ahead")
    run_for(deployed, 30)
    assert not any(r.source == src for r in deployed.bs_agent.delivered)
    assert deployed.network.trace["bs.drop_e2e_auth"] > 0


def test_counter_state_advances():
    deployed = small_deployment(seed=63)
    src = pick_source(deployed)
    deployed.agents[src].send_reading(b"a")
    run_for(deployed, 30)
    deployed.agents[src].send_reading(b"b")
    run_for(deployed, 30)
    assert deployed.bs_agent._e2e_windows[src].high_water == 2


def test_duplicate_paths_counted_not_rejected():
    deployed = small_deployment(seed=64)
    src = pick_source(deployed)
    deployed.agents[src].send_reading(b"multi-path")
    run_for(deployed, 30)
    delivered = [r for r in deployed.bs_agent.delivered if r.source == src]
    assert len(delivered) == 1  # deduplicated, not duplicated
    assert deployed.bs_agent.rejected == 0


def test_unknown_source_rejected():
    deployed = small_deployment(seed=65)
    trace = deployed.network.trace
    from repro.protocol.forwarding import build_inner, wrap_hop

    # Forge a frame claiming a source id that was never provisioned, from
    # a node adjacent to the BS using its real cluster key.
    bs_neighbor = deployed.network.adjacency(0)[0]
    agent = deployed.agents[bs_neighbor]
    st = agent.state
    ghost = 999_999
    c1 = build_inner(ghost, b"x", bytes(16), 1, deployed.config.aead)
    frame = wrap_hop(
        st.keyring.get(st.cid).material, st.cid, bs_neighbor, st.next_hop_seq(),
        deployed.gradient.level(bs_neighbor), deployed.network.transport.now, c1,
        deployed.config.aead,
    )
    deployed.network.node(bs_neighbor).broadcast(frame)
    run_for(deployed, 10)
    assert trace["bs.drop_unknown_source"] > 0


def test_readings_from_filters_by_source():
    deployed = small_deployment(seed=66)
    sources = deployed.gradient.routable()[:2]
    for src in sources:
        deployed.agents[src].send_reading(b"tagged")
    run_for(deployed, 30)
    for src in sources:
        assert all(r.source == src for r in deployed.bs_agent.readings_from(src))


def test_registry_key_lookup():
    deployed = small_deployment(seed=67)
    nid = sorted(deployed.agents)[0]
    assert deployed.registry.node_key(nid) == deployed.agents[nid].state.preload.node_key.material
    import pytest

    with pytest.raises(KeyError):
        deployed.registry.node_key(424242)


def test_rejections_attributed_to_cluster():
    deployed = small_deployment(seed=68)
    trace = deployed.network.trace
    bs_neighbor = deployed.network.adjacency(0)[0]
    agent = deployed.agents[bs_neighbor]
    cid = agent.state.cid
    # Forge frames claiming that cluster with a wrong key: each one should
    # be counted against the cluster it claimed.
    from repro.protocol.forwarding import build_inner, wrap_hop

    for seq in range(6):
        c1 = build_inner(999, b"x", None, None, deployed.config.aead)
        frame = wrap_hop(bytes(16), cid, 999, seq + 1, 5,
                         deployed.network.transport.now, c1, deployed.config.aead)
        deployed.network.node(bs_neighbor).broadcast(frame)
    run_for(deployed, 10)
    assert deployed.bs_agent.rejections_by_cluster[cid] >= 6
    assert cid in deployed.bs_agent.suspicious_clusters(threshold=5)
    assert deployed.bs_agent.suspicious_clusters(threshold=100) == []


def test_out_of_order_arrivals_all_accepted():
    # Multi-path forwarding + jitter can reorder a burst from one source;
    # the bidirectional window must accept every fresh counter.
    deployed = small_deployment(seed=69)
    src = pick_source(deployed)
    for i in range(5):
        deployed.agents[src].send_reading(f"burst-{i}".encode())
    run_for(deployed, 60)
    data = {r.data for r in deployed.bs_agent.readings_from(src)}
    assert data == {f"burst-{i}".encode() for i in range(5)}


def test_counter_window_unit():
    from repro.protocol.forwarding import CounterWindow
    import pytest

    w = CounterWindow(8)
    assert w.would_accept(1) and w.would_accept(8)
    w.accept(5)
    assert w.high_water == 5
    assert not w.would_accept(5)  # replay
    assert w.would_accept(3)  # backward but unseen
    w.accept(3)
    assert not w.would_accept(3)
    w.accept(20)
    assert w.high_water == 20
    assert not w.would_accept(12)  # fell out of the window
    assert w.would_accept(13)
    assert 21 in w.candidates()
    with pytest.raises(ValueError):
        CounterWindow(0)


def test_delivery_listeners_see_every_accepted_reading():
    deployed = small_deployment(seed=75)
    seen = []
    deployed.bs_agent.add_delivery_listener(seen.append)
    src = pick_source(deployed)
    deployed.agents[src].send_reading(b"observed")
    run_for(deployed, 30)
    assert seen == deployed.bs_agent.delivered
    assert any(r.data == b"observed" and r.source == src for r in seen)


def test_incremental_totals_track_the_delivery_log():
    deployed = small_deployment(seed=76)
    sources = deployed.gradient.routable()[:4]
    for src in sources:
        deployed.agents[src].send_reading(b"count-me")
    run_for(deployed, 30)
    bs = deployed.bs_agent
    assert bs.delivered_total == len(bs.delivered) > 0
    assert bs.distinct_sources == len({r.source for r in bs.delivered})


def test_hop_seq_window_takes_an_overtaken_frame_once():
    from repro.protocol.forwarding import build_inner, wrap_hop

    deployed = small_deployment(seed=65)
    bs = deployed.bs_agent
    level_one = next(nid for nid in deployed.agents if deployed.gradient.level(nid) == 1)
    st = deployed.agents[level_one].state
    key = st.keyring.get(st.cid).material

    def frame(seq: int, reading: bytes) -> bytes:
        c1 = build_inner(st.node_id, reading, None, None, deployed.config.aead)
        return wrap_hop(key, st.cid, st.node_id, seq, 1, deployed.now(), c1, deployed.config.aead)

    late, early = frame(40, b"sent first"), frame(41, b"overtook it")
    for f in (early, late, late, frame(41 - 32, b"too old")):
        bs.on_frame(st.node_id, f)
    assert [r.data for r in bs.delivered] == [b"overtook it", b"sent first"]
    assert deployed.network.trace["bs.drop_replay"] == 2
