"""Radio model: delivery, airtime, collisions, monitors, energy; link loss
as a FaultPlan drop on the same line."""

import math

import numpy as np
import pytest

from repro.runtime.faults import FaultInjectingTransport, FaultPlan, LinkFaults
from repro.runtime.loopback import LoopbackTransport
from repro.sim.network import Network
from repro.sim.radio import RadioConfig
from repro.sim.topology import Deployment


class Recorder:
    def __init__(self):
        self.frames = []

    def on_frame(self, sender_id, frame):
        self.frames.append((sender_id, frame))


def line_network(n=4, spacing=1.0, radius=1.2, fault_plan=None, **radio_kwargs) -> Network:
    dep = Deployment.grid(1, n, spacing=spacing, radius=radius)
    transport = None
    if fault_plan is not None:
        transport = FaultInjectingTransport(LoopbackTransport(), fault_plan)
    net = Network(dep, seed=0, radio_config=RadioConfig(**radio_kwargs),
                  bs_position=np.array([-100.0, -100.0]), transport=transport)
    for nid in net.sensor_ids():
        rec = Recorder()
        net.node(nid).app = rec
    return net


def test_broadcast_reaches_exactly_neighbors():
    net = line_network()
    net.node(2).broadcast(b"ping")
    net.transport.run()
    received = {nid: net.node(nid).app.frames for nid in net.sensor_ids()}
    assert [s for s, _ in received[1]] == [2]
    assert [s for s, _ in received[3]] == [2]
    assert received[2] == []  # no self-delivery
    assert received[4] == []  # out of range


def test_airtime_delay():
    net = line_network()
    net.node(1).broadcast(b"x" * 10)
    net.transport.run()
    expected = RadioConfig().airtime(10) + RadioConfig().propagation_delay_s
    assert math.isclose(net.transport.now, expected, rel_tol=1e-9)


def test_airtime_formula():
    cfg = RadioConfig(bitrate_bps=19200, header_bytes=11)
    assert math.isclose(cfg.airtime(9), 20 * 8 / 19200)


def test_tx_rx_energy_charged():
    net = line_network()
    net.node(2).broadcast(b"hello")
    net.transport.run()
    nbytes = 5 + RadioConfig().header_bytes
    assert math.isclose(net.node(2).energy.tx_consumed, net.energy_model.tx_cost(nbytes))
    assert math.isclose(net.node(1).energy.rx_consumed, net.energy_model.rx_cost(nbytes))


def test_dead_sender_stays_silent():
    net = line_network()
    net.node(2).die()
    net.node(2).broadcast(b"ghost")
    net.transport.run()
    assert net.node(1).app.frames == []


def test_dead_receiver_gets_nothing():
    net = line_network()
    net.node(1).die()
    net.node(2).broadcast(b"msg")
    net.transport.run()
    assert net.node(1).app.frames == []
    assert net.node(3).app.frames != []


def test_total_loss_drops_everything():
    net = line_network(fault_plan=FaultPlan(seed=0, defaults=LinkFaults(drop=1.0)))
    net.node(2).broadcast(b"msg")
    net.transport.run()
    assert net.node(1).app.frames == []
    assert net.trace.counters["fault.drop"] > 0


def test_partial_loss_statistics():
    net = line_network(fault_plan=FaultPlan(seed=0, defaults=LinkFaults(drop=0.5)))
    for _ in range(200):
        net.node(2).broadcast(b"m")
    net.transport.run()
    delivered = len(net.node(1).app.frames)
    assert 60 < delivered < 140  # ~100 expected


def test_collisions_drop_overlapping_receptions():
    net = line_network(model_collisions=True)
    # Two back-to-back transmissions from different senders overlap at 2.
    net.node(1).broadcast(b"a" * 20)
    net.node(3).broadcast(b"b" * 20)
    net.transport.run()
    assert net.trace["net.frames_collided"] > 0
    assert len(net.node(2).app.frames) == 1


def test_no_collision_when_spaced():
    net = line_network(model_collisions=True)
    net.node(1).broadcast(b"a")
    net.transport.run()
    net.node(3).broadcast(b"b")
    net.transport.run()
    assert net.trace["net.frames_collided"] == 0
    assert len(net.node(2).app.frames) == 2


def test_monitor_sees_everything():
    net = line_network()
    seen = []
    net.radio.monitors.append(lambda t, s, f: seen.append((s, f)))
    net.node(1).broadcast(b"m1")
    net.node(4).broadcast(b"m2")
    net.transport.run()
    assert seen == [(1, b"m1"), (4, b"m2")]


def test_counters():
    net = line_network()
    net.node(2).broadcast(b"msg")
    net.transport.run()
    assert net.trace["net.frames_sent"] == 1
    assert net.trace["net.frames_delivered"] == 2
    assert net.trace["net.bytes_sent"] == 3 + RadioConfig().header_bytes


def test_config_validation():
    with pytest.raises(ValueError):
        RadioConfig(bitrate_bps=0)
    with pytest.raises(ValueError):
        RadioConfig(header_bytes=-1)


def test_receiver_down_at_send_time_is_left_out_of_the_fan_out():
    net = line_network()
    net.node(1).die()
    net.node(2).broadcast(b"msg")
    net.transport.run()
    # One fan-out event for the one surviving receiver (node 3).
    assert net.transport.events_executed == 1
    assert net.trace["net.frames_delivered"] == 1


def test_receiver_dying_in_flight_gets_nothing():
    net = line_network()
    net.node(2).broadcast(b"msg")
    net.node(1).die()  # after the send, before the arrival
    net.transport.run()
    assert net.node(1).app.frames == []
    assert net.node(3).app.frames == [(2, b"msg")]
    assert net.transport.events_executed == 2

