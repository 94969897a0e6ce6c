"""repro.runtime — the transport-agnostic protocol runtime.

Runs the paper's protocol agents on a pluggable network fabric. The
pieces:

* :class:`~repro.runtime.transport.Transport` — the clock/timer/broadcast
  abstraction, with two backends:
  :class:`~repro.runtime.loopback.LoopbackTransport` (the in-process,
  deterministic run loop, with :class:`~repro.sim.radio.Radio` as its
  link model — the simulator) and :class:`~repro.runtime.udp.UdpTransport`
  (real datagram sockets, per-node ports);
* :class:`~repro.runtime.node.NodeRuntime` — the node: hosts one
  unmodified protocol agent on any transport and owns its battery;
* :func:`~repro.runtime.cluster.build_transport` — ``--transport`` names
  to fabrics, for :func:`repro.protocol.setup.deploy` (also exported here
  under its older name ``deploy_live``);
* :class:`~repro.runtime.faults.FaultPlan` /
  :class:`~repro.runtime.faults.FaultInjectingTransport` — seeded,
  declarative fault injection (loss, duplication, reordering, delay,
  corruption, crashes, partitions) over any backend, driven by the
  ``repro chaos`` CLI (:mod:`repro.runtime.chaos`);
* :mod:`repro.runtime.lifecycle` — the lifecycle runtime: seeded node
  mobility (:mod:`repro.sim.mobility`) stepped against the live
  topology, sustained join/leave/revoke/refresh churn, and bounded
  re-clustering convergence tracking, driven by the ``repro churn``
  CLI.

Entry point: ``python -m repro run-live --n 50 --transport loopback``.
"""

from repro.runtime.chaos import ChaosResult, ChaosScenario, run_chaos
from repro.runtime.lifecycle import (
    ChurnDriver,
    ChurnResult,
    ChurnScenario,
    ConvergenceTracker,
    MobilityDriver,
    run_churn,
)
from repro.runtime.cluster import TRANSPORTS, LiveNetwork, build_transport, deploy_live
from repro.runtime.faults import (
    CrashEvent,
    FaultInjectingTransport,
    FaultPlan,
    LinkFaults,
    Partition,
)
from repro.runtime.loopback import LoopbackTransport
from repro.runtime.node import NodeRuntime
from repro.runtime.transport import Transport
from repro.runtime.udp import UdpTransport

__all__ = [
    "Transport",
    "LoopbackTransport",
    "UdpTransport",
    "NodeRuntime",
    "LiveNetwork",
    "TRANSPORTS",
    "build_transport",
    "deploy_live",
    "LinkFaults",
    "CrashEvent",
    "Partition",
    "FaultPlan",
    "FaultInjectingTransport",
    "ChaosScenario",
    "ChaosResult",
    "run_chaos",
    "MobilityDriver",
    "ChurnDriver",
    "ConvergenceTracker",
    "ChurnScenario",
    "ChurnResult",
    "run_churn",
]
