"""Parent-first forwarding.

Each routable node's gradient parent (``deployed.gradient``) is its
designated next hop. A node that accepts a reading from a hop sender
whose parent it is forwards it at once; every other downhill receiver waits
``forward_jitter_s + U(0, forward_jitter_s)``, so it hears the parent
and stands down (``forward.suppressed``). With hop ACKs on, a backup
silenced by a same-level overtaker stands by: if that node retransmits
the reading, the backup forwards it once itself (``forward.standby``).
With ``forward_jitter_s == 0`` every forwarder sends at once, as before.
"""

from __future__ import annotations

import pytest

from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import DedupCache, build_inner
from tests.conftest import small_deployment
from tests.protocol.test_gradient import assert_parents
from tests.protocol.test_suppression import (
    PEER,
    UPHILL,
    _accept,
    _copy,
    _data,
    _forwarder,
    _sent_by,
)

#: Hop-layer sender of injected copies (an id no real node has).
OTHER = 9005

HOP_ACKS = ProtocolConfig(hop_ack_enabled=True)


def _counter(deployed, name: str) -> int:
    return deployed.network.trace.counters.get(name, 0)


def _family(deployed):
    """A parent, one of its children, and a backup: another downhill
    neighbour of the child that holds the child's key and hears the
    parent under the parent's key."""
    network = deployed.network
    gradient = deployed.gradient
    children: dict[int, list[int]] = {}
    for nid in sorted(deployed.agents):
        children.setdefault(gradient.parent(nid), []).append(nid)
    for pid, parent in sorted(deployed.agents.items()):
        for cid in children.get(pid, ()):
            child = deployed.agents[cid].state
            for bid in sorted(network.adjacency(cid)):
                backup = deployed.agents.get(bid)
                if (
                    backup is not None
                    and bid != pid
                    and gradient.level(bid) == gradient.level(pid)
                    and backup.state.keyring.has(child.cid)
                    and backup.state.keyring.has(parent.state.cid)
                    and pid in network.adjacency(bid)
                ):
                    return parent, deployed.agents[cid], backup
    raise AssertionError("no parent with a child and a backup")


# -- the three rules ---------------------------------------------------------


def test_parent_forwards_within_the_reception():
    deployed = small_deployment()
    parent, child, _backup = _family(deployed)
    sent = _sent_by(deployed, parent.node.id)
    c1 = build_inner(4242, b"reading", None, None, deployed.config.aead)
    # A frame from the child, sealed under the child's cluster key.
    hops = deployed.gradient.level(child.node.id)
    frame = _copy(deployed, child, child.node.id, hops, c1)
    parent.on_frame(child.node.id, frame)
    # On the air before the clock moves, with no timer left behind.
    assert len(_data(sent)) == 1
    assert not parent._pending
    deployed.run_for(1.0)
    assert len(_data(sent)) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_parent_forward_fires_in_the_second_window(seed):
    deployed = small_deployment(seed=seed)
    jitter = deployed.config.forward_jitter_s
    agent = _forwarder(deployed)
    times: list[float] = []
    deployed.network.radio.monitors.append(
        lambda time, sender, frame: times.append(time) if sender == agent.node.id else None
    )
    start = deployed.now()
    for k in range(8):
        c1 = build_inner(4242, b"reading %d" % k, None, None, deployed.config.aead)
        uphill = deployed.gradient.level(agent.node.id) + 1
        agent.on_frame(UPHILL, _copy(deployed, agent, UPHILL, uphill, c1, seq=k + 1))
    assert len(agent._pending) == 8 and times == []
    deployed.run_for(1.0)
    assert len(times) == 8
    assert all(jitter <= t - start <= 2 * jitter for t in times)
    # Each backup draws its own place in the window.
    assert len(set(times)) == 8


def test_non_parent_that_hears_the_parent_stays_silent():
    deployed = small_deployment()
    parent, child, backup = _family(deployed)
    sent = _sent_by(deployed, backup.node.id)
    parent_sent = _sent_by(deployed, parent.node.id)
    child.send_reading(b"reading")
    deployed.run_for(0.045)  # one airtime, less than one jitter window
    # The child's frame arrived: the parent already forwarded it, the
    # backup is waiting.
    assert len(_data(parent_sent)) == 1
    assert len(backup._pending) == 1
    deployed.run_for(1.0)
    assert _data(sent) == []
    assert not backup._pending
    assert _counter(deployed, "forward.suppressed") >= 1
    assert len(deployed.bs_agent.delivered) == 1


# -- the gradient ------------------------------------------------------------


def test_children_follow_a_revocation():
    deployed = small_deployment()
    parent, child, _backup = _family(deployed)
    cid = parent.state.cid
    deployed.bs_agent.revoke_clusters([cid])
    deployed.run_for(1.0)
    deployed.assign_gradient()
    assert_parents(deployed)
    pid = parent.node.id
    assert deployed.gradient.level(pid) == -1 and pid not in deployed.gradient.parents


def test_children_follow_a_topology_update():
    deployed = small_deployment()
    parent, child, _backup = _family(deployed)
    network = deployed.network
    pid, kid = parent.node.id, child.node.id
    network.update_topology(
        {},
        {
            pid: [v for v in network.adjacency(pid) if v != kid],
            kid: [v for v in network.adjacency(kid) if v != pid],
        },
    )
    deployed.assign_gradient()
    assert_parents(deployed)
    assert deployed.gradient.parent(kid) != pid


# -- standby -----------------------------------------------------------------


def _suppressed_backup(deployed, overtaker_hops: int = 0):
    """A backup whose pending forward a copy from PEER, ``overtaker_hops``
    closer to the BS than the backup, cancelled."""
    agent = _forwarder(deployed)
    sent = _sent_by(deployed, agent.node.id)
    c1, fp = _accept(deployed, agent)
    h = deployed.gradient.level(agent.node.id)
    agent.on_frame(PEER, _copy(deployed, agent, PEER, h - overtaker_hops, c1))
    assert fp not in agent._pending
    assert _counter(deployed, "forward.suppressed") == 1
    return agent, sent, c1, h - overtaker_hops


def test_standby_forwards_once_when_the_overtaker_retransmits():
    deployed = small_deployment(config=HOP_ACKS)
    agent, sent, c1, hops = _suppressed_backup(deployed)
    fp = DedupCache.fingerprint(c1)
    assert agent._custody[fp] == PEER
    # Another node's copy is no retransmission by the overtaker.
    agent.on_frame(OTHER, _copy(deployed, agent, OTHER, hops, c1))
    assert _data(sent) == []
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1, seq=2))
    assert len(_data(sent)) == 1
    assert _counter(deployed, "forward.standby") == 1
    assert agent._custody[fp] is None and fp in agent._retx
    # Once only.
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1, seq=3))
    assert len(_data(sent)) == 1
    assert _counter(deployed, "forward.standby") == 1


def test_no_standby_for_a_strictly_downhill_overtaker():
    deployed = small_deployment(config=HOP_ACKS)
    agent, sent, c1, hops = _suppressed_backup(deployed, overtaker_hops=1)
    assert agent._custody[DedupCache.fingerprint(c1)] is None
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1, seq=2))
    assert _data(sent) == []
    assert _counter(deployed, "forward.standby") == 0


def test_no_standby_with_hop_acks_off():
    deployed = small_deployment()
    agent, sent, c1, hops = _suppressed_backup(deployed)
    assert not agent._custody
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1, seq=2))
    deployed.run_for(1.0)
    assert _data(sent) == []
    assert _counter(deployed, "forward.standby") == 0


def test_standby_is_flushed_on_crash():
    deployed = small_deployment(config=HOP_ACKS)
    agent, sent, c1, hops = _suppressed_backup(deployed)
    agent.node.offline()
    agent.node.online()
    agent.on_frame(PEER, _copy(deployed, agent, PEER, hops, c1, seq=2))
    assert _data(sent) == []
    assert _counter(deployed, "forward.standby") == 0
