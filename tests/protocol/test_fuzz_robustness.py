"""Fuzz robustness: arbitrary bytes off the air must never crash a node.

A sensor network's radio delivers whatever an adversary airs. Every
handler must treat malformed, truncated and random frames as data — drop
and count, never raise. These tests drive random bytes (and structured
near-misses) through the full dispatch path of agents, the base station
and a joining node, including near-misses of a genuine DATA frame
whose seal primed the open memo.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import aead
from repro.protocol import messages
from repro.protocol.addition import deploy_new_node
from repro.protocol.aggregation import DuplicateEventFilter
from repro.protocol.config import JOIN_WINDOW_S
from repro.protocol.forwarding import build_inner, wrap_hop
from repro.runtime.cluster import deploy_live
from tests.conftest import small_deployment

# One shared deployment: the fuzz only reads/drops, never mutates
# protocol state beyond counters.
_DEPLOYED = small_deployment(n=60, density=8.0, seed=240)
_AGENT = next(iter(_DEPLOYED.agents.values()))
_BS = _DEPLOYED.bs_agent

fuzz_settings = settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@fuzz_settings
@given(st.binary(max_size=200))
def test_agent_survives_random_frames(frame):
    _AGENT.on_frame(0, frame)  # must not raise


@fuzz_settings
@given(st.binary(max_size=200))
def test_bs_survives_random_frames(frame):
    _BS.on_frame(0, frame)  # must not raise


@fuzz_settings
@given(
    st.sampled_from(
        [
            messages.HELLO,
            messages.LINKINFO,
            messages.DATA,
            messages.REVOKE,
            messages.JOIN_REQ,
            messages.JOIN_RESP,
            messages.REFRESH,
            messages.REELECT_HELLO,
        ]
    ),
    st.binary(max_size=120),
)
def test_agent_survives_typed_garbage(msg_type, body):
    # Correct type byte, garbage body: exercises every parser's error path.
    _AGENT.on_frame(0, bytes([msg_type]) + body)


@fuzz_settings
@given(st.binary(min_size=1, max_size=200))
def test_truncations_of_valid_frames_are_safe(prefix):
    # Take a genuine DATA frame and feed every kind of mangled variant.
    frame = _primed_data_frame()
    for mangled in (frame[: len(prefix) % len(frame)], prefix + frame, frame + prefix):
        _AGENT.on_frame(0, mangled)
        _BS.on_frame(0, mangled)


def _primed_data_frame() -> bytes:
    """A genuine DATA frame of ``_AGENT``'s; its seal primed the open memo."""
    st_ = _AGENT.state
    c1 = build_inner(st_.node_id, b"payload", None, None, _DEPLOYED.config.aead)
    frame = wrap_hop(
        st_.keyring.get(st_.cid).material,
        st_.cid,
        st_.node_id,
        st_.hop_seq + 1000,
        _DEPLOYED.gradient.level(st_.node_id),
        _DEPLOYED.network.transport.now,
        c1,
        _DEPLOYED.config.aead,
    )
    return frame


def _drops() -> int:
    """Every ``drop.*`` count in the shared deployment's trace."""
    counters = _DEPLOYED.network.trace.counters
    return sum(v for name, v in counters.items() if name.startswith("drop."))


@fuzz_settings
@given(st.data())
def test_mutations_of_a_primed_data_frame_end_in_a_drop(data):
    # A single changed byte after the type byte, or a truncation, of a
    # frame the open memo holds: a miss that fails, never an entry of its own.
    frame = _primed_data_frame()
    if data.draw(st.booleans(), label="truncate"):
        mutated = frame[: data.draw(st.integers(1, len(frame) - 1), label="length")]
    else:
        index = data.draw(st.integers(1, len(frame) - 1), label="index")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != frame[index]), label="value")
        mutated = frame[:index] + bytes([value]) + frame[index + 1 :]
    memo = list(aead._opened.items())
    drops, rejected = _drops(), _BS.rejected
    _AGENT.on_frame(0, mutated)
    _BS.on_frame(0, mutated)
    assert _drops() == drops + 1
    assert _BS.rejected == rejected + 1
    assert list(aead._opened.items()) == memo


def test_joining_node_survives_garbage():
    deployed = small_deployment(n=40, density=8.0, seed=241)
    joiner = deploy_new_node(deployed, deployed.network.node(1).position + 0.3)
    joiner.on_frame(0, b"")
    joiner.on_frame(0, bytes([messages.JOIN_RESP]))
    joiner.on_frame(0, bytes([messages.JOIN_RESP]) + bytes(50))
    joiner.on_frame(0, bytes(100))
    # And it still completes its handshake afterwards.
    sim = deployed.network.transport
    sim.run(until=sim.now + JOIN_WINDOW_S + 1.0)
    assert joiner.completed


def test_empty_frame_everywhere():
    _AGENT.on_frame(0, b"")
    _BS.on_frame(0, b"")


def test_unknown_type_counted():
    trace = _DEPLOYED.network.trace
    before = trace["drop.unknown_type"]
    _AGENT.on_frame(0, bytes([99]) + b"whatever")
    assert trace["drop.unknown_type"] == before + 1


def _keyed_hop_frame(deployed, agent, c1: bytes) -> bytes:
    """A DATA frame ``agent`` seals under its own cluster key around ``c1``."""
    st_ = agent.state
    return wrap_hop(
        st_.keyring.get(st_.cid).material,
        st_.cid,
        st_.node_id,
        st_.next_hop_seq(),
        deployed.gradient.level(st_.node_id),
        deployed.now(),
        c1,
        deployed.config.aead,
    )


def _downhill_neighbour(deployed, sender):
    """A neighbour of ``sender`` one hop nearer the BS that holds its cluster key."""
    return next(
        deployed.agent(nid)
        for nid in deployed.network.adjacency(sender.state.node_id)
        if nid in deployed.agents
        and deployed.agent(nid).state.keyring.has(sender.state.cid)
        and 0 <= deployed.gradient.level(nid) < deployed.gradient.level(sender.state.node_id)
    )


def test_a_short_authenticated_inner_blob_is_dropped_as_malformed():
    # A cluster-key holder can seal any c1, including one shorter than
    # the inner envelope's header: it authenticates, dedups as new, and
    # must then be dropped, not parsed into an exception.
    deployed = small_deployment(n=60, density=8.0, seed=242)
    sender = next(a for nid, a in deployed.agents.items() if deployed.gradient.level(nid) > 1)
    receiver = _downhill_neighbour(deployed, sender)
    trace = deployed.network.trace
    cases = [
        (None, b""),
        (None, b"\x00\x01"),
        (DuplicateEventFilter(), b"\x00\x02\x03"),
        # Explicit-counter flag without its 6-byte counter: read only by
        # a fusion hook.
        (DuplicateEventFilter(), b"\x00\x00\x00\x07\x02\x00"),
    ]
    for fusion, c1 in cases:
        receiver.fusion = fusion
        malformed, forwarded = trace["drop.data_malformed"], receiver.forwarded_count
        receiver.on_frame(sender.state.node_id, _keyed_hop_frame(deployed, sender, c1))
        assert trace["drop.data_malformed"] == malformed + 1
        assert receiver.forwarded_count == forwarded


def test_a_short_authenticated_inner_blob_does_not_stop_a_live_run():
    deployed, _ = deploy_live(60, 10.0, seed=1)
    deployed.assign_gradient()
    sender = next(a for nid, a in deployed.agents.items() if deployed.gradient.level(nid) > 1)
    sender.node.broadcast(_keyed_hop_frame(deployed, sender, b"\x00\x01"))
    start = deployed.now()
    assert deployed.run_for(1.0) == start + 1.0
    # Every neighbour that could open the frame dropped it as malformed.
    holders = [
        nid
        for nid in deployed.network.adjacency(sender.state.node_id)
        if nid in deployed.agents and deployed.agent(nid).state.keyring.has(sender.state.cid)
    ]
    assert holders
    assert deployed.network.trace["drop.data_malformed"] == len(holders)
