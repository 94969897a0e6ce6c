"""CSMA MAC model."""

import numpy as np
import pytest

from repro.protocol.setup import run_key_setup
from repro.sim.network import Network
from repro.sim.radio import RadioConfig
from repro.sim.topology import Deployment


class Recorder:
    def __init__(self):
        self.frames = []

    def on_frame(self, sender_id, frame):
        self.frames.append((sender_id, frame))


def line_network(**radio_kwargs):
    dep = Deployment.grid(1, 4, spacing=1.0, radius=1.2)
    net = Network(dep, seed=0, radio_config=RadioConfig(**radio_kwargs),
                  bs_position=np.array([-100.0, -100.0]))
    for nid in net.sensor_ids():
        net.node(nid).app = Recorder()
    return net


def test_csma_defers_second_transmission():
    net = line_network(mac="csma", model_collisions=True)
    # Node 2 transmits; node 1 (in range) tries while the carrier is busy.
    net.node(2).broadcast(b"a" * 30)
    net.node(1).broadcast(b"b" * 30)
    net.transport.run()
    assert net.radio.csma_deferrals > 0
    assert net.trace["net.frames_collided"] == 0
    # Both frames eventually arrive at node 2's neighbor set.
    frames_at_2 = [f for _, f in net.node(2).app.frames]
    assert b"b" * 30 in frames_at_2


def test_ideal_mac_collides_at_common_receiver():
    # Senders 1 and 3 share receiver 2: simultaneous frames collide there.
    net = line_network(mac="ideal", model_collisions=True)
    net.node(1).broadcast(b"a" * 30)
    net.node(3).broadcast(b"b" * 30)
    net.transport.run()
    assert net.trace["net.frames_collided"] > 0


def test_csma_hidden_terminal_still_collides():
    # Senders 1 and 3 cannot hear each other (hidden terminals): CSMA does
    # not save receiver 2 — the realistic limitation of carrier sensing.
    net = line_network(mac="csma", model_collisions=True)
    net.node(1).broadcast(b"a" * 30)
    net.node(3).broadcast(b"b" * 30)
    net.transport.run()
    assert net.radio.csma_deferrals == 0
    assert net.trace["net.frames_collided"] > 0


def test_csma_gives_up_after_max_attempts():
    net = line_network(mac="csma", csma_max_attempts=1, csma_slot_s=1e-6)
    # Channel busy for a long frame; retries exhaust instantly.
    net.node(2).broadcast(b"x" * 500)
    net.node(1).broadcast(b"y")
    net.node(1).broadcast(b"z")
    net.transport.run()
    assert net.radio.csma_drops >= 1


def test_csma_does_not_delay_idle_channel():
    net = line_network(mac="csma")
    net.node(1).broadcast(b"solo")
    net.transport.run()
    assert net.radio.csma_deferrals == 0
    assert len(net.node(2).app.frames) == 1


def test_key_setup_under_csma_with_collisions():
    # The protocol's synchronized link phase is the stress case: with CSMA
    # the whole setup must still satisfy the structural invariants.
    net = Network.build(120, 10.0, seed=180,
                        radio_config=RadioConfig(mac="csma", model_collisions=True))
    deployed, metrics = run_key_setup(net)
    for agent in deployed.agents.values():
        assert agent.state.decided
        assert agent.state.stored_key_count() >= 1
    # Hidden-terminal collisions do happen during the jittered link phase;
    # the protocol's structure survives them (nodes just miss some
    # neighbor-cluster keys, never hold wrong ones).
    assert net.trace["net.frames_collided"] > 0
    assert metrics.cluster_count > 0


def test_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(mac="aloha")
    with pytest.raises(ValueError):
        RadioConfig(csma_slot_s=0)
    with pytest.raises(ValueError):
        RadioConfig(csma_max_attempts=0)
