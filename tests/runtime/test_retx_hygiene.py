"""Crash hygiene for the reliability layer's retransmit timers and the
jittered forwards.

A node that goes offline (crash or death) loses its volatile queues:
every armed custody-ACK retransmit timer must be cancelled and custody
renounced, counted under ``net.retx.flushed``. Without this, a timer
armed before a crash fires into the restarted — possibly key-refreshed
— epoch and retransmits frames the node no longer has custody of. A
backup forwarder's jittered forward is cancelled too, and counted as no
drop: the node went away, not the reading.
"""

import pytest

from repro.protocol.config import ProtocolConfig
from repro.runtime import deploy_live


@pytest.fixture(scope="module")
def reliable():
    deployed, _ = deploy_live(
        40, 10.0, seed=2, transport="loopback",
        config=ProtocolConfig(hop_ack_enabled=True),
    )
    deployed.assign_gradient()
    return deployed


def counters(deployed) -> dict[str, int]:
    return dict(deployed.network.trace.counters)


def far_agent(deployed, skip=()):
    return next(
        a for a in deployed.agents.values()
        if a.operational and deployed.gradient.level(a.state.node_id) >= 2
        and a.state.node_id not in skip
    )


def test_offline_flushes_armed_retx_timers(reliable):
    agent = far_agent(reliable)
    node = reliable.network.nodes[agent.state.node_id]
    agent.send_reading(b"in-flight")
    # The custody timer is armed at send; the hop ACK has not yet been
    # processed (loopback drains its queue inside run_for).
    assert len(agent._retx) == 1
    before = counters(reliable).get("net.retx.flushed", 0)
    node.offline()
    assert not agent._retx and not agent._custody
    assert counters(reliable)["net.retx.flushed"] == before + 1
    node.online()


def test_flush_is_a_noop_when_nothing_is_pending(reliable):
    agent = far_agent(reliable)
    node = reliable.network.nodes[agent.state.node_id]
    assert not agent._retx
    before = counters(reliable).get("net.retx.flushed", 0)
    node.offline()
    node.online()
    assert counters(reliable).get("net.retx.flushed", 0) == before


def test_die_also_flushes(reliable):
    agent = far_agent(reliable)
    victim = far_agent(reliable, skip={agent.state.node_id})
    victim.send_reading(b"doomed")
    assert victim._retx
    before = counters(reliable).get("net.retx.flushed", 0)
    reliable.network.nodes[victim.state.node_id].die()
    assert not victim._retx
    assert counters(reliable)["net.retx.flushed"] == before + 1


def test_rebooted_node_stays_fully_usable(reliable):
    agent = far_agent(reliable)
    node = reliable.network.nodes[agent.state.node_id]
    agent.send_reading(b"pre-crash")
    node.offline()
    node.online()
    # Keys and protocol state survived the reboot (volatile queues did
    # not): a fresh reading must still reach the base station.
    agent.send_reading(b"post-reboot")
    reliable.run_for(30)
    assert any(r.data == b"post-reboot" for r in reliable.bs_agent.delivered)


def test_no_retransmit_resurrection_after_reboot(reliable):
    agent = far_agent(reliable)
    node = reliable.network.nodes[agent.state.node_id]
    agent.send_reading(b"flushed-away")
    node.offline()
    node.online()
    before = counters(reliable).get("net.retx.sent", 0)
    # Run well past the retransmit timeout: the cancelled timer must
    # never fire for this node (its queue is empty, so any retx it sent
    # would be a use-after-flush).
    reliable.run_for(60)
    assert not agent._retx
    assert counters(reliable).get("net.retx.sent", 0) == before


def _pending_forwarder():
    """A clean deployment stepped until some backup holds a jittered forward."""
    deployed, _ = deploy_live(40, 10.0, seed=2, transport="loopback")
    deployed.assign_gradient()
    far_agent(deployed).send_reading(b"jittered")
    for _ in range(200):
        deployed.run_for(0.001)
        waiting = [a for a in deployed.agents.values() if a._pending]
        if waiting:
            return deployed, waiting[0]
    raise AssertionError("no backup forwarder ever waited")


@pytest.mark.parametrize("restart", [False, True], ids=["down", "restarted"])
def test_offline_cancels_jittered_forwards(monkeypatch, restart):
    deployed, backup = _pending_forwarder()
    sent = []
    monkeypatch.setattr(backup, "_transmit_hop", lambda c1, fp: sent.append(fp))
    node = deployed.network.nodes[backup.state.node_id]
    before = counters(deployed).get("drop.data_no_cluster_key", 0)
    node.offline()
    assert not backup._pending
    if restart:
        # Back inside the jitter window: the reading's custody went with
        # the crash, so the node must not forward it now.
        node.online()
    deployed.run_for(5)
    assert sent == []
    assert counters(deployed).get("drop.data_no_cluster_key", 0) == before
