"""The forward is the ACK.

With hop ACKs on, a node that takes custody of a reading sends no ACK:
its own forward, overheard by the hop sender, is the acknowledgement.
A sender that awaits custody of a reading cancels its retransmit timer
when it overhears an authenticated, fresh copy of that reading from a
node strictly closer to the base station (``0 <= hops_to_bs < own level``),
and counts ``net.retx.overheard``. Explicit ACKs are sent in two cases
only: the base station ACKs everything it authenticates, and a
custodian re-ACKs a retransmission of a reading it holds (a custodian
whose forward was suppressed sends nothing until then).
"""

from __future__ import annotations

import pytest

from repro.protocol import messages
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import build_inner, wrap_hop
from tests.conftest import small_deployment
from tests.protocol.test_suppression import UPHILL, _accept, _copy, _forwarder, _sent_by

#: Hop-layer senders of the injected copies (ids no real node has).
DOWNHILL, OTHER = 9004, 9005

HOP_ACKS = ProtocolConfig(hop_ack_enabled=True)


class _SpyTimer:
    """Wraps a retransmit timer and records its cancellation."""

    def __init__(self, timer) -> None:
        self.timer = timer
        self.cancelled = 0

    def cancel(self) -> None:
        self.cancelled += 1
        self.timer.cancel()


def _acks(deployed, frames: list[bytes]) -> list[tuple[int, bytes]]:
    """``(hop_sender, fingerprint)`` of every ACK among ``frames``."""
    tag_len = deployed.config.tag_len
    return [
        (hop_sender, fp)
        for _cid, hop_sender, fp, _tag in (
            messages.decode_ack(f, tag_len) for f in frames if f[0] == messages.ACK
        )
    ]


def _overheard(deployed) -> int:
    return deployed.network.trace.counters.get("net.retx.overheard", 0)


def _tracked(agent) -> tuple[bytes, bytes, _SpyTimer]:
    """``agent`` originates a reading and awaits custody of it."""
    agent.send_reading(b"reading")
    ((fp, entry),) = agent._retx.items()
    entry.timer = _SpyTimer(entry.timer)
    return entry.c1, fp, entry.timer


def test_taking_custody_sends_no_ack():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    _c1, fp = _accept(deployed, agent)
    assert fp in agent._custody and fp in agent._pending
    assert sent == []
    deployed.run_for(1.0)
    # The forward went out; still no ACK from the custodian.
    assert [f[0] for f in sent] == [messages.DATA]
    assert _acks(deployed, sent) == []


@pytest.mark.parametrize("below", [1, 2])
def test_downhill_forward_cancels_the_retransmit_once(below):
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    c1, fp, timer = _tracked(agent)
    h = deployed.gradient.level(agent.node.id)
    agent.on_frame(DOWNHILL, _copy(deployed, agent, DOWNHILL, h - below, c1))
    assert fp not in agent._retx
    assert timer.cancelled == 1
    assert _overheard(deployed) == 1
    # A second forward finds nothing left to cancel.
    agent.on_frame(OTHER, _copy(deployed, agent, OTHER, h - below, c1))
    assert timer.cancelled == 1
    assert _overheard(deployed) == 1


def test_cancelled_sender_never_retransmits():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp, _timer = _tracked(agent)
    # Cut the node off so no real forward or ACK reaches it, then let it
    # overhear one injected downhill forward.
    for nid in deployed.network.adjacency(agent.node.id):
        deployed.network.nodes[nid].die()
    downhill = deployed.gradient.level(agent.node.id) - 1
    agent.on_frame(DOWNHILL, _copy(deployed, agent, DOWNHILL, downhill, c1))
    deployed.run_for(10.0)
    assert [f[0] for f in sent] == [messages.DATA]
    assert deployed.network.trace.counters.get("net.retx.sent", 0) == 0


@pytest.mark.parametrize("hops", ["sideways", "uphill", "unroutable"])
def test_copy_not_closer_to_the_bs_does_not_cancel(hops):
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    c1, fp, timer = _tracked(agent)
    h = deployed.gradient.level(agent.node.id)
    copy_hops = {"sideways": h, "uphill": h + 1, "unroutable": -1}[hops]
    agent.on_frame(OTHER, _copy(deployed, agent, OTHER, copy_hops, c1))
    assert fp in agent._retx
    assert timer.cancelled == 0
    assert _overheard(deployed) == 0


def test_unroutable_sender_is_not_cancelled():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    c1, fp, timer = _tracked(agent)
    h = deployed.gradient.level(agent.node.id)
    deployed.gradient.levels[agent.node.id] = -1  # lost its route after sending
    agent.on_frame(DOWNHILL, _copy(deployed, agent, DOWNHILL, h - 1, c1))
    assert fp in agent._retx and timer.cancelled == 0
    assert _overheard(deployed) == 0


def test_copy_under_the_wrong_key_does_not_cancel():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    c1, fp, timer = _tracked(agent)
    st = agent.state
    wrong = bytes(len(st.keyring.get(st.cid).material))
    frame = wrap_hop(
        wrong,
        st.cid,
        DOWNHILL,
        1,
        deployed.gradient.level(agent.node.id) - 1,
        deployed.now(),
        c1,
        deployed.config.aead,
    )
    agent.on_frame(DOWNHILL, frame)
    assert deployed.network.trace.counters.get("drop.data_bad_auth", 0) == 1
    assert fp in agent._retx and timer.cancelled == 0
    assert _overheard(deployed) == 0


def test_replayed_copy_does_not_cancel():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    c1, fp, timer = _tracked(agent)
    h = deployed.gradient.level(agent.node.id)
    # DOWNHILL's hop seq 5 is used up by another reading first.
    other = build_inner(4242, b"other", None, None, deployed.config.aead)
    agent.on_frame(DOWNHILL, _copy(deployed, agent, DOWNHILL, h - 1, other, seq=5))
    agent.on_frame(DOWNHILL, _copy(deployed, agent, DOWNHILL, h - 1, c1, seq=5))
    assert deployed.network.trace.counters.get("drop.data_replay", 0) == 1
    assert fp in agent._retx and timer.cancelled == 0
    assert _overheard(deployed) == 0


def test_custodian_reacks_a_retransmission():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp = _accept(deployed, agent)
    # The hop sender did not hear a forward yet and retransmits under a
    # fresh hop sequence number.
    uphill = deployed.gradient.level(agent.node.id) + 1
    agent.on_frame(UPHILL, _copy(deployed, agent, UPHILL, uphill, c1, seq=2))
    assert _acks(deployed, sent) == [(UPHILL, fp)]


def test_overhearer_without_custody_does_not_ack():
    deployed = small_deployment(config=HOP_ACKS)
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    h = deployed.gradient.level(agent.node.id)
    c1 = build_inner(4242, b"reading", None, None, deployed.config.aead)
    # Heard first from a sideways node: dropped, no custody taken.
    agent.on_frame(OTHER, _copy(deployed, agent, OTHER, h, c1))
    agent.on_frame(UPHILL, _copy(deployed, agent, UPHILL, h + 1, c1))
    assert _acks(deployed, sent) == []


def test_base_station_acks():
    deployed = small_deployment(config=HOP_ACKS)
    level_one = next(nid for nid in sorted(deployed.agents) if deployed.gradient.level(nid) == 1)
    agent = deployed.agents[level_one]
    bs_sent = _sent_by(deployed, deployed.bs_agent.node.id)
    _c1, fp, timer = _tracked(agent)
    deployed.run_for(0.2)  # inside ACK_TIMEOUT_S
    assert (agent.node.id, fp) in _acks(deployed, bs_sent)
    assert fp not in agent._retx and timer.cancelled == 1
    assert deployed.network.trace.counters.get("net.retx.acked", 0) >= 1
