"""Discrete-event wireless sensor network simulator.

This subpackage is the substitute for SensorSimII (the Java simulator the
paper used, no longer available): an event queue, a unit-disk broadcast
radio with airtime/loss/collision accounting, an energy model with
SPINS-era cost constants, random deployments with density control and a
:class:`Network` tying them together. The run loop and the nodes are the
runtime's (:class:`~repro.runtime.loopback.LoopbackTransport`,
:class:`~repro.runtime.node.NodeRuntime`): a simulation is a deployment on
the in-process fabric, with the radio as its link model.
"""

from repro.sim.energy import EnergyMeter, EnergyModel
from repro.sim.engine import EventHandle, EventQueue
from repro.sim.network import BS_ID, Network
from repro.sim.radio import Radio, RadioConfig
from repro.sim.rng import RngManager
from repro.sim.topology import Deployment, neighbor_lists
from repro.sim.trace import Trace

__all__ = [
    "EventQueue",
    "EventHandle",
    "RngManager",
    "Deployment",
    "neighbor_lists",
    "Radio",
    "RadioConfig",
    "EnergyModel",
    "EnergyMeter",
    "Network",
    "BS_ID",
    "Trace",
]
