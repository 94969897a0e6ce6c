"""The frame memo in ``repro.protocol.forwarding``: one reception per DATA broadcast.

A hop frame is sealed once and received by every neighbour; the memo
lets those receivers share its header, ``τ``, ``c1`` and ``c1``'s dedup
fingerprint while each still picks its own cluster key, derives its own
hop key, checks ``τ`` against its own clock and runs its own anti-replay
and duplicate checks. These tests pin that the sharing is invisible and
safe: a hit returns and counts what a computed open does, a receiver
without the frame's key is refused, freshness and replay still apply,
forged or mutated frames are refused and never enter the memo, the memo
stays bounded and FIFO, and a deployment behaves identically without it.
"""

from __future__ import annotations

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
    hop_header,
    unwrap_hop,
    wrap_hop,
)
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.workloads import SoakWorkload
from tests.conftest import small_deployment

AEAD = AeadConfig()
CLUSTER_KEY = bytes(range(16, 32))
OTHER_KEY = bytes(range(32, 48))
C1 = bytes(range(40))
TAU = 100.0


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts from empty memos and leaves none behind."""
    aead._opened.clear()
    forwarding._frames.clear()
    yield
    aead._opened.clear()
    forwarding._frames.clear()


def _wrap(seq: int = 1, c1: bytes = C1, tau: float = TAU, sender: int = 5) -> bytes:
    return wrap_hop(CLUSTER_KEY, 9, sender, seq, 3, tau, c1, AEAD)


def _stats_delta(call) -> tuple[object, dict[str, int]]:
    before = STATS.snapshot()
    result = call()
    after = STATS.snapshot()
    return result, {name: after[name] - before[name] for name in after}


def _memo() -> list:
    return list(forwarding._frames.items())


def test_a_hit_returns_and_counts_what_a_computed_open_does():
    frame = _wrap()
    assert frame in forwarding._frames  # wrap_hop primed it
    header = hop_header(frame)
    hit, hit_stats = _stats_delta(lambda: unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AEAD))
    assert hit == (C1, DedupCache.fingerprint(C1))
    assert hit_stats["opens"] == 1 and hit_stats["keystream_reused_blocks"] > 0

    # The same reception with the frame memo empty: parsed, opened by
    # open_ (served by the open memo that seal primed), then inserted.
    forwarding._frames.clear()
    assert hop_header(frame) == header
    computed, computed_stats = _stats_delta(
        lambda: unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AEAD)
    )
    assert computed == hit
    assert computed_stats == hit_stats
    assert forwarding._frames[frame].header == header

    # And with no memo at all: the full HMAC and decryption agree too.
    forwarding._frames.clear()
    aead._opened.clear()
    assert unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AEAD) == hit


def test_a_receiver_with_another_cluster_key_is_refused():
    frame = _wrap()
    memo = _memo()
    with pytest.raises(AuthenticationError):
        unwrap_hop(OTHER_KEY, frame, TAU, 30.0, AEAD)
    assert _memo() == memo
    assert unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AEAD)[0] == C1


def test_a_receiver_with_other_aead_settings_does_not_share_the_entry():
    frame = _wrap()
    with pytest.raises(AuthenticationError):
        unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AeadConfig(cipher="rc5-32/12/16"))
    with pytest.raises(AuthenticationError):
        unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AeadConfig(tag_len=AEAD.tag_len - 1))
    _, pure = _stats_delta(
        lambda: unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AeadConfig(backend="pure"))
    )
    assert pure["keystream_vector_blocks"] == 0 and pure["keystream_blocks"] > 0


def test_a_hit_still_checks_freshness():
    frame = _wrap()
    assert unwrap_hop(CLUSTER_KEY, frame, TAU + 29.0, 30.0, AEAD)[0] == C1
    with pytest.raises(StaleMessage):
        unwrap_hop(CLUSTER_KEY, frame, TAU + 31.0, 30.0, AEAD)
    assert frame in forwarding._frames


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
        unwrap_hop(CLUSTER_KEY, mutated, TAU, 30.0, AEAD)
    assert _memo() == memo


def test_forged_frames_leave_the_memo_unchanged():
    genuine = [_wrap(seq=s) for s in range(1, forwarding.FRAME_MEMO_SIZE + 1)]
    memo = _memo()
    assert len(memo) == forwarding.FRAME_MEMO_SIZE
    for i in range(1000):
        frame = genuine[i % len(genuine)]
        forged = _flip(frame, i) if i % 2 else frame[:11] + bytes(len(frame) - 11)
        with pytest.raises((AuthenticationError, messages.MalformedMessage)):
            unwrap_hop(CLUSTER_KEY, forged, TAU, 30.0, AEAD)
    assert _memo() == memo


def test_a_short_plaintext_inserts_nothing():
    # A genuine seal of fewer bytes than τ: the tag verifies, the frame
    # is still refused and never remembered.
    header = messages.DataHeader(cid=9, sender=5, seq=1, hops_to_bs=3)
    sealed = aead.seal(
        forwarding.hop_key(CLUSTER_KEY, 5), 1, b"abc", messages.data_associated_data(header), AEAD
    )
    frame = messages.encode_data(header, sealed)
    with pytest.raises(AuthenticationError):
        unwrap_hop(CLUSTER_KEY, frame, TAU, 30.0, AEAD)
    assert not forwarding._frames


def test_memo_never_exceeds_its_cap_and_evicts_oldest_first(monkeypatch):
    monkeypatch.setattr(forwarding, "FRAME_MEMO_SIZE", 8)
    frames = []
    for seq in range(1, 41):
        frames.append(_wrap(seq=seq))
        assert len(forwarding._frames) <= 8
    assert list(forwarding._frames) == frames[-8:]


def test_a_re_primed_frame_becomes_the_newest(monkeypatch):
    monkeypatch.setattr(forwarding, "FRAME_MEMO_SIZE", 8)
    frames = [_wrap(seq=seq) for seq in range(1, 9)]
    assert _wrap(seq=1) == frames[0]
    later = [_wrap(seq=seq) for seq in range(9, 16)]
    assert list(forwarding._frames) == [frames[0], *later]


def test_a_verified_miss_inserts_as_the_newest(monkeypatch):
    monkeypatch.setattr(forwarding, "FRAME_MEMO_SIZE", 8)
    first = _wrap(seq=1)
    forwarding._frames.clear()
    others = [_wrap(seq=seq) for seq in range(2, 9)]
    unwrap_hop(CLUSTER_KEY, first, TAU, 30.0, AEAD)
    assert list(forwarding._frames) == [*others, first]


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
        receiver.state.hops_to_bs + 1,
        deployed.network.transport.now,
        b"\x00" * 12,
        deployed.config.aead,
    )
    assert frame in forwarding._frames
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

    # Another cluster key under the same CID: the memo does not serve it.
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
    assert frame in forwarding._frames
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
    assert third.state.last_seen_seq[sender.state.node_id] == hop_header(frame).seq
    # Every receiver counts one open, shared or not.
    assert stats["opens"] == 4


def test_a_shared_open_ends_when_the_memo_evicts_it(monkeypatch):
    monkeypatch.setattr(forwarding, "FRAME_MEMO_SIZE", 1)
    deployed = small_deployment(n=60, density=8.0, seed=3)
    sender, _ = _sender_and_neighbour(deployed)
    first, second = _key_holders(deployed, sender, 2)
    frame = _primed_frame(deployed, sender, first)
    unwraps = _count_unwraps(monkeypatch)
    reception = DataReception(frame, deployed.now(), deployed.network.trace)
    reception.deliver(first, sender.state.node_id)
    _primed_frame(deployed, sender, first)  # a newer frame evicts this one
    assert frame not in forwarding._frames
    reception.deliver(second, sender.state.node_id)
    reception.close()
    assert len(unwraps) == 2
    assert frame in forwarding._frames  # re-opened in full by the second


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
# Deployments behave identically without the memo
# ---------------------------------------------------------------------------


def _soak(fault_plan: FaultPlan | None) -> tuple:
    """Delivered readings, frames, events, trace counters and STATS growth of a seeded soak."""
    before = STATS.snapshot()
    config = ProtocolConfig(hop_ack_enabled=fault_plan is not None)
    deployed, _metrics = deploy_live(
        n=100, density=10.0, seed=5, transport="loopback", config=config, fault_plan=fault_plan
    )
    deployed.assign_gradient()
    transport = deployed.network.transport
    loopback = getattr(transport, "inner", transport)
    sent_before = transport.frames_sent
    events_before = loopback.events_executed
    workload = SoakWorkload(deployed, offered_load_fps=150.0, duration_s=1.0, seed=5)
    workload.start()
    deployed.run_for(2.0)
    after = STATS.snapshot()
    return (
        [(r.time, r.source, r.data) for r in deployed.bs_agent.delivered],
        transport.frames_sent - sent_before,
        loopback.events_executed - events_before,
        dict(deployed.network.trace.counters),
        {name: after[name] - before[name] for name in after},
    )


@pytest.mark.parametrize(
    "fault_plan",
    [None, FaultPlan(seed=5, defaults=LinkFaults(drop=0.1, duplicate=0.05, corrupt=0.05))],
    ids=["clean", "lossy"],
)
def test_loopback_soak_identical_without_the_frame_memo(monkeypatch, fault_plan):
    with_memo = _soak(fault_plan)
    assert with_memo[0]
    if fault_plan is not None:
        assert with_memo[3]["fault.corrupt"] > 0 and with_memo[3]["tx.ack"] > 0
    monkeypatch.setattr(forwarding, "FRAME_MEMO_SIZE", 0)
    forwarding._frames.clear()
    aead._opened.clear()
    without_memo = _soak(fault_plan)
    assert not forwarding._frames
    assert without_memo == with_memo
