"""repro.gateway — the reader-facing query plane over base stations.

The mesh terminates every verified reading at the base station; this
package is everything *after* that point — the control-plane/data-plane
split of the ROADMAP's "millions of users" direction, kept strictly off
the constrained mesh:

* :mod:`repro.gateway.store` — a thread-safe live state store:
  per-node latest readings with last-write-wins merge, per-origin
  version vectors, bounded history and a monotone update cursor;
* :mod:`repro.gateway.api` — an HTTP/JSON query API on the stdlib
  ``http.server`` (``/status``, ``/nodes``, ``/nodes/<id>``,
  ``/readings``, ``/metrics`` and a cursor-resumable ``/updates``
  long-poll stream), and :func:`~repro.gateway.api.deployment_status`,
  the deployment health snapshot ``/status`` and ``repro run-live``
  report;
* :mod:`repro.gateway.federation` — signed version-vector digests and
  CRDT delta pulls between gateways, so several gateways each owning a
  mesh region converge to identical global state and any one answers
  for the whole deployment;
* :mod:`repro.gateway.serve` — the ``repro serve`` composition: a live
  deployment, continuous workload, store, HTTP server and federation
  loop in one process.

Operator contract (endpoints, merge semantics, the federation wire
protocol, threat notes) lives in ``docs/GATEWAY.md``; the ``gateway.*``
metric names are catalogued in ``docs/TELEMETRY.md``.
"""

from repro.gateway.api import GatewayApp, GatewayHttpServer, deployment_status
from repro.gateway.federation import (
    FederationError,
    FederationPeer,
    derive_federation_key,
    federate_once,
)
from repro.gateway.serve import LiveGateway, ServeOptions
from repro.gateway.store import (
    GatewayStateStore,
    RegionSpec,
    StateEntry,
    parse_region,
)

__all__ = [
    "GatewayApp",
    "GatewayHttpServer",
    "deployment_status",
    "FederationError",
    "FederationPeer",
    "derive_federation_key",
    "federate_once",
    "LiveGateway",
    "ServeOptions",
    "GatewayStateStore",
    "RegionSpec",
    "StateEntry",
    "parse_region",
]
