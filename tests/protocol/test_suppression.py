"""An overtaken forwarder stays silent.

While a jittered forward is pending, a copy of the same reading overheard
from a node no farther from the base station (authenticated
header ``hops_to_bs`` >= 0 and <= the node's own gradient level) cancels it and counts
``forward.suppressed``. Custody stays recorded, so an upstream
retransmission is still re-ACKed.
"""

from __future__ import annotations

import pytest

from repro.protocol import messages
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import DedupCache, build_inner, wrap_hop
from repro.workloads import SoakWorkload
from tests.conftest import small_deployment

#: Hop-layer senders of the injected copies (ids no real node has).
UPHILL, PEER, RETRY = 9001, 9002, 9003


def _forwarder(deployed):
    """A sensor two or more hops out: it has neighbours on both sides."""
    return next(
        agent
        for _, agent in sorted(deployed.agents.items())
        if deployed.gradient.level(agent.node.id) >= 2
    )


def _copy(deployed, agent, sender: int, hops: int, c1: bytes, seq: int = 1) -> bytes:
    """A DATA frame carrying ``c1``, sealed under ``agent``'s cluster key."""
    st = agent.state
    return wrap_hop(
        st.keyring.get(st.cid).material,
        st.cid,
        sender,
        seq,
        hops,
        deployed.now(),
        c1,
        deployed.config.aead,
    )


def _sent_by(deployed, node_id: int) -> list[bytes]:
    """Every frame ``node_id`` puts on the air from now on."""
    frames: list[bytes] = []
    deployed.network.radio.monitors.append(
        lambda _time, sender, frame: frames.append(frame) if sender == node_id else None
    )
    return frames


def _suppressed(deployed) -> int:
    return deployed.network.trace.counters.get("forward.suppressed", 0)


def _accept(deployed, agent) -> tuple[bytes, bytes]:
    """Hand ``agent`` a reading from uphill: it accepts it for forwarding."""
    c1 = build_inner(4242, b"reading", None, None, deployed.config.aead)
    uphill = deployed.gradient.level(agent.node.id) + 1
    agent.on_frame(UPHILL, _copy(deployed, agent, UPHILL, uphill, c1))
    return c1, DedupCache.fingerprint(c1)


def _data(frames: list[bytes]) -> list[bytes]:
    return [f for f in frames if f[0] == messages.DATA]


@pytest.mark.parametrize("below", [0, 1])
def test_no_farther_copy_cancels_the_pending_forward(below):
    deployed = small_deployment()
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp = _accept(deployed, agent)
    assert fp in agent._pending
    h = deployed.gradient.level(agent.node.id)
    agent.on_frame(PEER, _copy(deployed, agent, PEER, h - below, c1))
    assert fp not in agent._pending
    assert _suppressed(deployed) == 1
    # A second overheard copy finds nothing left to cancel.
    agent.on_frame(RETRY, _copy(deployed, agent, RETRY, h - below, c1))
    assert _suppressed(deployed) == 1
    deployed.run_for(1.0)
    assert _data(sent) == []
    assert not agent._pending


@pytest.mark.parametrize("above", [1, 2, None])
def test_uphill_or_unroutable_copy_does_not_cancel(above):
    deployed = small_deployment()
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp = _accept(deployed, agent)
    hops = -1 if above is None else deployed.gradient.level(agent.node.id) + above
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1))
    assert fp in agent._pending
    assert _suppressed(deployed) == 0
    deployed.run_for(1.0)
    assert len(_data(sent)) == 1
    assert not agent._pending


def test_zero_jitter_never_suppresses():
    deployed = small_deployment(config=ProtocolConfig(forward_jitter_s=0.0))
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, _fp = _accept(deployed, agent)
    # Forwarded inside the reception: nothing was ever pending.
    assert len(_data(sent)) == 1 and not agent._pending
    h = deployed.gradient.level(agent.node.id)
    agent.on_frame(PEER, _copy(deployed, agent, PEER, h, c1))
    workload = SoakWorkload(deployed, 150.0, 1.0, warmup_s=0.2, seed=0)
    workload.start()
    deployed.run_for(2.0)
    assert workload.stats().delivered > 0
    assert _suppressed(deployed) == 0


def test_suppressed_custodian_still_reacks_upstream_retransmission():
    deployed = small_deployment(config=ProtocolConfig(hop_ack_enabled=True))
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp = _accept(deployed, agent)
    h = deployed.gradient.level(agent.node.id)
    agent.on_frame(PEER, _copy(deployed, agent, PEER, h, c1))
    assert _suppressed(deployed) == 1
    # Taking custody sent no ACK, and the suppressed forward never went
    # out: the upstream sender retransmits under a fresh hop sequence
    # number, and the custodian ACKs that.
    agent.on_frame(UPHILL, _copy(deployed, agent, UPHILL, h + 1, c1, seq=2))
    tag_len = deployed.config.tag_len
    acks = [messages.decode_ack(f, tag_len) for f in sent if f[0] == messages.ACK]
    assert [(hop_sender, ack_fp) for _cid, hop_sender, ack_fp, _tag in acks] == [
        (UPHILL, fp),
    ]
    assert fp in agent._custody
    deployed.run_for(1.0)
    assert _data(sent) == []


@pytest.mark.parametrize("hop_acks", [False, True])
def test_pending_table_drains_once_the_run_settles(hop_acks):
    deployed = small_deployment(config=ProtocolConfig(hop_ack_enabled=hop_acks))
    workload = SoakWorkload(deployed, 150.0, 1.0, warmup_s=0.2, seed=0)
    workload.start()
    deployed.run_for(1.0)
    assert any(agent._pending for agent in deployed.agents.values())
    deployed.run_for(2.0)
    stats = workload.stats()
    assert stats.delivered == stats.sent > 0
    assert _suppressed(deployed) > 0
    assert all(not agent._pending for agent in deployed.agents.values())
