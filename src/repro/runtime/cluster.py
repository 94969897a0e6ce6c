"""Transport selection for deployments.

A deployment is one :class:`~repro.sim.network.Network` whose nodes are
:class:`~repro.runtime.node.NodeRuntime` hosts on a transport, set up by
:func:`repro.protocol.setup.deploy`. This module maps the CLI's
``--transport`` names onto fabrics. ``LiveNetwork`` and ``deploy_live``
are aliases of :class:`~repro.sim.network.Network` and
:func:`~repro.protocol.setup.deploy`, kept for callers of those names.
"""

from __future__ import annotations

from repro.protocol.setup import deploy
from repro.sim.network import Network
from repro.runtime.loopback import LoopbackTransport
from repro.runtime.transport import Transport
from repro.runtime.udp import UdpTransport

__all__ = ["TRANSPORTS", "LiveNetwork", "build_transport", "deploy_live"]

#: Transport backends selectable by name (CLI ``--transport`` values).
TRANSPORTS = ("loopback", "udp")

LiveNetwork = Network
deploy_live = deploy


def build_transport(kind: str, **transport_kwargs) -> Transport:
    """Construct the ``kind`` transport (``pace`` for loopback;
    ``base_port`` / ``host`` / ``time_scale`` for UDP; ``trace`` for both).

    Raises:
        ValueError: unknown ``kind`` (valid names are in :data:`TRANSPORTS`).
    """
    if kind == "loopback":
        return LoopbackTransport(**transport_kwargs)
    if kind == "udp":
        return UdpTransport(**transport_kwargs)
    raise ValueError(f"unknown transport {kind!r}; choose one of {', '.join(TRANSPORTS)}")
