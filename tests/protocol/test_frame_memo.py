"""One open per DATA broadcast: ``DataReception`` and ``unwrap_hop``.

A hop frame is sealed once and received by every neighbour. One
:class:`~repro.protocol.agent.DataReception` per broadcast lets those
receivers share its verified open (``τ``, ``c1`` and ``c1``'s dedup
fingerprint) while each still picks its own cluster key, checks ``τ``
against its own clock and runs its own anti-replay and duplicate
checks. These tests pin that the sharing is invisible and safe: a
shared open returns and counts what an open of its own does, a receiver
with another key or other AEAD settings is refused it, freshness and
replay still apply, forged or mutated frames are refused and never
enter the open memo, a damaged, delayed or duplicated copy under fault
injection opens on its own, and a deployment behaves identically
without the shared pass.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import aead
from repro.crypto.aead import AeadConfig, AuthenticationError
from repro.crypto.keys import SymmetricKey
from repro.crypto.stats import STATS
from repro.protocol import agent as agent_module
from repro.protocol import forwarding, messages
from repro.protocol.agent import DataReception
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import (
    DedupCache,
    StaleMessage,
    check_fresh,
    unwrap_hop,
    wrap_hop,
)
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.sim.trace import Trace
from repro.workloads import SoakWorkload
from tests.conftest import small_deployment

CONFIG = ProtocolConfig(freshness_window_s=30.0)
AEAD = CONFIG.aead
CLUSTER_KEY = bytes(range(16, 32))
OTHER_KEY = bytes(range(32, 48))
C1 = bytes(range(40))
TAU = 100.0


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts from an empty open memo and leaves none behind."""
    aead._opened.clear()
    yield
    aead._opened.clear()


def _wrap(seq: int = 1, c1: bytes = C1, tau: float = TAU, sender: int = 5) -> bytes:
    return wrap_hop(CLUSTER_KEY, 9, sender, seq, 3, tau, c1, AEAD)


def _unwrap(cluster_key: bytes, frame: bytes, aead_config: AeadConfig = AEAD):
    """One receiver's own open of ``frame``: ``(τ, c1, fingerprint)``."""
    header, sealed = messages.decode_data_view(frame)
    return unwrap_hop(cluster_key, header, sealed, aead_config)


def _stats_delta(call) -> tuple[object, dict[str, int]]:
    before = STATS.snapshot()
    result = call()
    after = STATS.snapshot()
    return result, {name: after[name] - before[name] for name in after}


def _memo() -> list:
    return list(aead._opened.items())


def _shared(reception: DataReception, cluster_key: bytes, config: ProtocolConfig = CONFIG):
    """A later receiver's open of ``reception``, its shared counts added."""
    result = reception.unwrap(cluster_key, config)
    reception.close()
    return result


def test_a_hit_returns_and_counts_what_a_computed_open_does():
    frame = _wrap()
    reception = DataReception(frame, TAU, Trace())
    first, first_stats = _stats_delta(lambda: reception.unwrap(CLUSTER_KEY, CONFIG))
    assert first == (C1, DedupCache.fingerprint(C1))
    # The seal primed the open memo: the first open is a memo hit.
    assert first_stats["opens"] == 1 and first_stats["keystream_reused_blocks"] > 0
    shared, shared_stats = _stats_delta(lambda: _shared(reception, CLUSTER_KEY))
    assert shared == first
    assert shared_stats == first_stats

    # With no memo at all: the full HMAC and decryption agree, and a
    # receiver sharing that computed open counts what a memo hit of it
    # would.
    aead._opened.clear()
    reception = DataReception(frame, TAU, Trace())
    computed, computed_stats = _stats_delta(lambda: reception.unwrap(CLUSTER_KEY, CONFIG))
    assert computed == first
    assert computed_stats["keystream_reused_blocks"] == 0
    _, shared_stats = _stats_delta(lambda: _shared(reception, CLUSTER_KEY))
    _, hit_stats = _stats_delta(lambda: _unwrap(CLUSTER_KEY, frame))
    assert shared_stats == hit_stats == first_stats


def test_unwrap_hop_returns_tau_and_leaves_freshness_to_the_caller():
    frame = _wrap(tau=TAU)
    tau, c1, fingerprint = _unwrap(CLUSTER_KEY, frame)
    assert (tau, c1, fingerprint) == (TAU, C1, DedupCache.fingerprint(C1))
    check_fresh(tau, TAU + 29.0, 30.0)
    with pytest.raises(StaleMessage):
        check_fresh(tau, TAU + 31.0, 30.0)


def test_a_receiver_with_another_cluster_key_is_refused():
    frame = _wrap()
    memo = _memo()
    with pytest.raises(AuthenticationError):
        _unwrap(OTHER_KEY, frame)
    assert _memo() == memo
    reception = DataReception(frame, TAU, Trace())
    assert reception.unwrap(CLUSTER_KEY, CONFIG)[0] == C1
    with pytest.raises(AuthenticationError):
        reception.unwrap(OTHER_KEY, CONFIG)
    assert _shared(reception, CLUSTER_KEY)[0] == C1


def test_a_receiver_with_other_aead_settings_does_not_share_the_entry(
    monkeypatch, keystream_backend
):
    frame = _wrap()
    reception = DataReception(frame, TAU, Trace())
    assert reception.unwrap(CLUSTER_KEY, CONFIG)[0] == C1
    unwraps = _count_unwraps(monkeypatch)
    with pytest.raises(AuthenticationError):
        reception.unwrap(CLUSTER_KEY, ProtocolConfig(freshness_window_s=30.0, cipher="rc5-32/12/16"))
    with pytest.raises(AuthenticationError):
        reception.unwrap(
            CLUSTER_KEY, ProtocolConfig(freshness_window_s=30.0, tag_len=CONFIG.tag_len - 1)
        )

    def hit_then_pure():
        reception.unwrap(CLUSTER_KEY, CONFIG)  # served by the shared open
        keystream_backend("pure")
        return _shared(reception, CLUSTER_KEY, ProtocolConfig(freshness_window_s=30.0))

    _, stats = _stats_delta(hit_then_pure)
    # Equal settings in another object are not the same settings object:
    # that receiver opens the frame itself. The shared hit counts on the
    # batched kernel that made its open; the pure receiver's own open
    # does not.
    assert stats["opens"] == 2
    assert stats["keystream_vector_blocks"] * 2 == stats["keystream_blocks"] > 0
    keystream_backend("vector")
    assert _shared(reception, CLUSTER_KEY, ProtocolConfig(freshness_window_s=30.0))[0] == C1
    assert len(unwraps) == 4


def test_a_hit_still_checks_freshness(monkeypatch):
    frame = _wrap()
    reception = DataReception(frame, TAU + 31.0, Trace())
    unwraps = _count_unwraps(monkeypatch)
    # The first receiver's open verified before its own freshness check
    # failed; the second is served by that open and checks for itself.
    for _ in range(2):
        with pytest.raises(StaleMessage):
            reception.unwrap(CLUSTER_KEY, CONFIG)
    # A receiver with a wider window and the same AEAD settings object
    # is served too, and accepts the frame.
    wide = replace(CONFIG, freshness_window_s=60.0)
    vars(wide)["aead"] = CONFIG.aead
    assert reception.unwrap(CLUSTER_KEY, wide)[0] == C1
    assert len(unwraps) == 1


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index % len(flipped)] ^= 0x01
    return bytes(flipped)


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seq=st.integers(min_value=1, max_value=2**32 - 1),
    c1=st.binary(max_size=90),
    index=st.integers(min_value=0, max_value=1 << 16),
)
def test_any_flipped_byte_of_a_primed_frame_is_refused(seq, c1, index):
    # Type byte, clear header (CID, sender, seq, hops), ciphertext or tag.
    frame = _wrap(seq=seq, c1=c1)
    mutated = _flip(frame, index)
    memo = _memo()
    with pytest.raises((AuthenticationError, messages.MalformedMessage)):
        _unwrap(CLUSTER_KEY, mutated)
    assert _memo() == memo


def test_forged_frames_leave_the_memo_unchanged():
    genuine = [_wrap(seq=s) for s in range(1, aead.OPEN_MEMO_SIZE + 1)]
    memo = _memo()
    assert len(memo) == aead.OPEN_MEMO_SIZE
    for i in range(1000):
        frame = genuine[i % len(genuine)]
        forged = _flip(frame, i) if i % 2 else frame[:11] + bytes(len(frame) - 11)
        with pytest.raises((AuthenticationError, messages.MalformedMessage)):
            _unwrap(CLUSTER_KEY, forged)
    assert _memo() == memo


def test_a_short_plaintext_inserts_nothing():
    # A genuine seal of fewer bytes than τ: the tag verifies, the frame
    # is still refused, and no receiver of the reception is served.
    header = messages.DataHeader(cid=9, sender=5, seq=1, hops_to_bs=3)
    sealed = aead.seal(
        forwarding.hop_key(CLUSTER_KEY, 5), 1, b"abc", messages.data_associated_data(header), AEAD
    )
    frame = messages.encode_data(header, sealed)
    memo = _memo()
    reception = DataReception(frame, TAU, Trace())
    for _ in range(2):
        with pytest.raises(AuthenticationError):
            reception.unwrap(CLUSTER_KEY, CONFIG)
    assert _memo() == memo


# ---------------------------------------------------------------------------
# Each receiver's own decisions, through agent dispatch
# ---------------------------------------------------------------------------


def _sender_and_neighbour(deployed):
    """A node and one of its radio neighbours holding its cluster key."""
    for node_id, agent in sorted(deployed.agents.items()):
        st_ = agent.state
        if st_.cid is None or not st_.keyring.has(st_.cid):
            continue
        for other in deployed.network.adjacency(node_id):
            receiver = deployed.agents.get(other)
            if receiver is not None and receiver.state.keyring.has(st_.cid):
                return agent, receiver
    raise AssertionError("no sender with a key-holding neighbour")


def _primed_frame(deployed, sender, receiver) -> bytes:
    """A fresh DATA frame of ``sender``'s, downhill-bound for ``receiver``."""
    st_ = sender.state
    frame = wrap_hop(
        st_.keyring.get(st_.cid).material,
        st_.cid,
        st_.node_id,
        st_.next_hop_seq(),
        deployed.gradient.level(receiver.state.node_id) + 1,
        deployed.network.transport.now,
        b"\x00" * 12,
        deployed.config.aead,
    )
    return frame


def test_agent_dispatch_on_a_primed_frame_makes_its_own_decisions():
    deployed = small_deployment(n=60, density=8.0, seed=3)
    trace = deployed.network.trace
    sender, receiver = _sender_and_neighbour(deployed)
    cid, sender_id = sender.state.cid, sender.state.node_id

    # Held and live: accepted once, then a repeated hop seq is a replay.
    frame = _primed_frame(deployed, sender, receiver)
    replay = trace["drop.data_replay"]
    receiver.on_frame(sender_id, frame)
    receiver.on_frame(sender_id, frame)
    assert trace["drop.data_replay"] == replay + 1

    # Another cluster key under the same CID: refused.
    bad_auth = trace["drop.data_bad_auth"]
    receiver.state.keyring.store(cid, SymmetricKey(OTHER_KEY, "wrong"))
    receiver.on_frame(sender_id, _primed_frame(deployed, sender, receiver))
    assert trace["drop.data_bad_auth"] == bad_auth + 1

    # An erased copy of the key: KeyErasedError, counted as unknown cluster.
    unknown = trace["drop.data_unknown_cluster"]
    erased = SymmetricKey(bytes(16), "erased")
    erased.erase()
    receiver.state.keyring.store(cid, erased)
    receiver.on_frame(sender_id, _primed_frame(deployed, sender, receiver))
    assert trace["drop.data_unknown_cluster"] == unknown + 1

    # No key for the CID at all.
    receiver.state.keyring.remove(cid)
    receiver.on_frame(sender_id, _primed_frame(deployed, sender, receiver))
    assert trace["drop.data_unknown_cluster"] == unknown + 2


def test_agent_dispatch_on_a_primed_frame_still_checks_freshness():
    config = ProtocolConfig(freshness_window_s=5.0)
    deployed = small_deployment(n=60, density=8.0, seed=3, config=config)
    sender, receiver = _sender_and_neighbour(deployed)
    frame = _primed_frame(deployed, sender, receiver)
    trace = deployed.network.trace
    stale = trace["drop.data_stale"]
    deployed.run_for(10.0)
    receiver.on_frame(sender.state.node_id, frame)
    assert trace["drop.data_stale"] == stale + 1


# ---------------------------------------------------------------------------
# One reception shared by several receivers
# ---------------------------------------------------------------------------


def _key_holders(deployed, sender, count: int) -> list:
    """``count`` agents other than ``sender`` that hold its cluster key."""
    cid = sender.state.cid
    holders = [
        agent
        for _, agent in sorted(deployed.agents.items())
        if agent is not sender and agent.state.keyring.has(cid)
    ]
    assert len(holders) >= count
    return holders[:count]


def _count_unwraps(monkeypatch) -> list[bytes]:
    """Record the cluster key of every ``unwrap_hop`` call agents make."""
    keys: list[bytes] = []

    def unwrap(cluster_key, *args):
        keys.append(cluster_key)
        return unwrap_hop(cluster_key, *args)

    monkeypatch.setattr(agent_module, "unwrap_hop", unwrap)
    return keys


def test_a_shared_reception_serves_only_an_equal_key(monkeypatch):
    deployed = small_deployment(n=60, density=8.0, seed=3)
    trace = deployed.network.trace
    sender, _ = _sender_and_neighbour(deployed)
    cid = sender.state.cid
    first, wrong, third, other_tags = _key_holders(deployed, sender, 4)
    wrong.state.keyring.store(cid, SymmetricKey(OTHER_KEY, "wrong"))
    other_tags.config = ProtocolConfig(tag_len=deployed.config.tag_len + 4)
    frame = _primed_frame(deployed, sender, first)
    unwraps = _count_unwraps(monkeypatch)
    bad_auth = trace["drop.data_bad_auth"]

    reception = DataReception(frame, deployed.now(), trace)

    def receive() -> None:
        for receiver in (first, wrong, third, other_tags):
            reception.deliver(receiver, sender.state.node_id)
        reception.close()

    _, stats = _stats_delta(receive)
    # The first key holder opened the frame. The wrong key and the other
    # AEAD settings were refused the shared open and failed their own;
    # the third receiver was served by it.
    key = first.state.keyring.get(cid).material
    assert unwraps == [key, OTHER_KEY, key]
    assert trace["drop.data_bad_auth"] == bad_auth + 2
    # The third receiver recorded the frame's hop seq: a repeat is refused.
    seq = messages.decode_data_view(frame)[0].seq
    assert not third.state.accept_hop_seq(sender.state.node_id, seq)
    # Every receiver counts one open, shared or not.
    assert stats["opens"] == 4


def test_a_reception_hands_any_other_app_the_frame():
    deployed = small_deployment(n=60, density=8.0, seed=3)
    sender, receiver = _sender_and_neighbour(deployed)
    frame = _primed_frame(deployed, sender, receiver)
    heard: list[tuple[int, bytes]] = []

    class Recorder:
        def on_frame(self, sender_id: int, frame: bytes) -> None:
            heard.append((sender_id, frame))

    reception = DataReception(frame, deployed.now(), deployed.network.trace)
    reception.deliver(Recorder(), 7)
    reception.deliver(deployed.bs_agent, 7)
    reception.close()
    assert heard == [(7, frame)]


# ---------------------------------------------------------------------------
# Fault injection: immediate copies share, damaged and late copies do not
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flip_at", [-1, 20], ids=["tag", "ciphertext"])
def test_a_damaged_copy_never_reuses_the_shared_open(monkeypatch, flip_at):
    deployed, _ = deploy_live(n=60, density=8.0, seed=3, fault_plan=FaultPlan(seed=3))
    transport = deployed.network.transport
    trace = deployed.network.trace
    sender, _ = _sender_and_neighbour(deployed)
    neighbours = [
        deployed.agents[nid]
        for nid in deployed.network.adjacency(sender.state.node_id)
        if nid in deployed.agents and deployed.agents[nid].state.keyring.has(sender.state.cid)
    ]
    assert len(neighbours) >= 5
    damaged, delayed, duplicated, *immediate = neighbours
    sender_id = sender.state.node_id
    transport.plan = FaultPlan(
        seed=3,
        per_link={
            (sender_id, damaged.state.node_id): LinkFaults(corrupt=1.0),
            (sender_id, delayed.state.node_id): LinkFaults(delay_jitter_s=0.01),
            (sender_id, duplicated.state.node_id): LinkFaults(duplicate=1.0),
        },
    )
    monkeypatch.setattr(transport, "_corrupt", lambda frame: _flip(frame, flip_at))
    on_air: list[bytes] = []
    deployed.network.radio.monitors.append(
        lambda _time, tx, frame: on_air.append(frame) if tx == sender_id else None
    )
    opens: list[bool] = []

    def unwrap(cluster_key, frame_header, frame_sealed, aead_config):
        if frame_header.sender == sender_id:
            # The frame's genuine bytes, or a damaged copy of them.
            opens.append(bytes(frame_sealed) == on_air[0][-len(frame_sealed) :])
        return unwrap_hop(cluster_key, frame_header, frame_sealed, aead_config)

    monkeypatch.setattr(agent_module, "unwrap_hop", unwrap)
    bad_auth, replay = trace["drop.data_bad_auth"], trace["drop.data_replay"]
    # A reading of the sender's own, which it never forwards again.
    sender.send_reading(b"reading")
    seq = sender.state.hop_seq
    deployed.run_for(0.2)

    # The damaged copy failed its own open; every neighbour handed the
    # genuine frame accepted it, the delayed and duplicated ones included.
    assert on_air[1:] == []
    assert trace["drop.data_bad_auth"] == bad_auth + 1
    # Only the receivers of the genuine frame recorded its hop seq.
    for receiver in (delayed, duplicated, *immediate):
        assert not receiver.state.accept_hop_seq(sender_id, seq)
    assert damaged.state.accept_hop_seq(sender_id, seq)
    # The second copy of the duplicated delivery was a replay.
    assert trace["drop.data_replay"] == replay + 1
    # One open served every immediate neighbour (the duplicated one's
    # first copy among them); the damaged copy, the delayed copy and the
    # duplicate each opened on their own.
    assert sorted(opens) == [False, True, True, True]


# ---------------------------------------------------------------------------
# Deployments behave identically without the shared reception pass
# ---------------------------------------------------------------------------


def _soak(fault_plan: FaultPlan | None, shared: bool) -> tuple:
    """Delivered readings, frames, events, trace counters and STATS growth of a seeded soak."""
    before = STATS.snapshot()
    config = ProtocolConfig(hop_ack_enabled=fault_plan is not None)
    deployed, _metrics = deploy_live(
        n=100, density=10.0, seed=5, transport="loopback", config=config, fault_plan=fault_plan
    )
    deployed.assign_gradient()
    if not shared:
        # Every receiver then takes the frame alone, through on_frame.
        deployed.network.radio.receptions.clear()
    transport = deployed.network.transport
    loopback = getattr(transport, "inner", transport)
    trace = deployed.network.trace
    sent_before = trace["net.frames_sent"]
    events_before = loopback.events_executed
    workload = SoakWorkload(deployed, offered_load_fps=150.0, duration_s=1.0, seed=5)
    workload.start()
    deployed.run_for(2.0)
    after = STATS.snapshot()
    return (
        [(r.time, r.source, r.data) for r in deployed.bs_agent.delivered],
        [node.frames_received for _, node in sorted(deployed.network.nodes.items())],
        trace["net.frames_sent"] - sent_before,
        loopback.events_executed - events_before,
        dict(trace.counters),
        {name: after[name] - before[name] for name in after},
    )


@pytest.mark.parametrize(
    "fault_plan",
    [None, FaultPlan(seed=5, defaults=LinkFaults(drop=0.1, duplicate=0.05, corrupt=0.05))],
    ids=["clean", "lossy"],
)
def test_loopback_soak_identical_without_the_shared_reception(fault_plan):
    shared = _soak(fault_plan, shared=True)
    assert shared[0]
    if fault_plan is not None:
        assert shared[4]["fault.corrupt"] > 0 and shared[4]["tx.ack"] > 0
    aead._opened.clear()
    assert _soak(fault_plan, shared=False) == shared
