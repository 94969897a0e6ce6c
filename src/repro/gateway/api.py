"""The gateway's HTTP/JSON query API — stdlib only, no frameworks.

Read path for the "millions of users" side of the deployment: operators
and downstream services query the gateway over plain HTTP while the
constrained mesh keeps running underneath. Endpoints (all JSON):

=====================  ======================================================
``GET /status``        deployment + store health (O(1) counters, no scans)
``GET /nodes``         every node's latest LWW entry
``GET /nodes/<id>``    one node's latest entry + bounded recent history
``GET /readings``      recent accepted readings (``?node=``, ``?limit=``)
``GET /metrics``       the full telemetry snapshot (counters/gauges/histograms)
``GET /updates``       incremental update stream: long-poll with a resume
                       cursor (``?cursor=``, ``?timeout=``, ``?limit=``)
``GET  /federation/digest``  signed version-vector digest (peers only)
``POST /federation/pull``    signed CRDT delta exchange (peers only)
=====================  ======================================================

Split in two layers so tests can exercise routing without sockets:
:class:`GatewayApp` is a pure ``(method, path, query, body) -> (status,
payload)`` dispatcher over a :class:`~repro.gateway.store.GatewayStateStore`
(plus, optionally, a live deployment, summarised by
:func:`deployment_status`);
:class:`GatewayHttpServer` binds it to a ``ThreadingHTTPServer``.

What the API must never expose: key material. Responses are built only
from delivered plaintext readings, public topology counts and the
telemetry registry — all of which are key-free by construction (ldplint
KEY001 taints any key flowing toward telemetry, and ``SymmetricKey``
reprs are redacted). See ``docs/GATEWAY.md`` for the threat notes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.gateway.federation import FederationError, handle_pull, signed_digest
from repro.gateway.store import GatewayStateStore
from repro.protocol.metrics import cluster_assignment

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocol.setup import DeployedProtocol

__all__ = [
    "GatewayApp",
    "GatewayHttpServer",
    "MAX_BODY_BYTES",
    "MAX_POLL_TIMEOUT_S",
    "deployment_status",
]

#: Upper bound on one /updates long-poll park, seconds.
MAX_POLL_TIMEOUT_S = 30.0

#: Upper bound on a POST body, bytes. A pull request carries only a
#: version vector, so 1 MiB is ample.
MAX_BODY_BYTES = 1 << 20

#: Endpoint list echoed in 404 bodies so the API self-describes.
_ENDPOINTS = (
    "/status",
    "/nodes",
    "/nodes/<id>",
    "/readings",
    "/metrics",
    "/updates",
    "/federation/digest",
    "/federation/pull",
)


def deployment_status(deployed: "DeployedProtocol") -> dict:
    """One JSON-serializable snapshot of a deployment's health.

    Clusters formed, node liveness, the base station's delivery and
    rejection totals, the transport's frame counters, and under
    ``telemetry`` exactly :meth:`repro.telemetry.Telemetry.snapshot` —
    the same structure JSONL ``sample`` records embed, so console and
    stream consumers read one schema (docs/TELEMETRY.md). ``repro
    run-live`` prints it; ``/status`` serves it without ``telemetry``.

    Delivery totals come from the base station's incremental counters,
    never from scanning ``bs.delivered``, so a status poll stays O(1) in
    the number of readings ever delivered and ``/status`` can call it
    per request.
    """
    bs = deployed.bs_agent
    transport = deployed.network.transport
    return {
        "transport": transport.name,
        "clock_s": round(deployed.now(), 6),
        "nodes": len(deployed.agents),
        "nodes_alive": sum(1 for a in deployed.agents.values() if a.node.alive),
        "clusters_formed": len(cluster_assignment(deployed)),
        "readings_delivered": bs.delivered_total,
        "distinct_sources": bs.distinct_sources,
        "readings_rejected": bs.rejected,
        "revoked_clusters": sorted(bs.revoked_cids),
        "suspicious_clusters": bs.suspicious_clusters(),
        "telemetry": deployed.network.trace.telemetry.snapshot(),
        "frames": {
            "sent": transport.frames_sent,
            "delivered": transport.frames_delivered,
            "bytes_sent": transport.bytes_sent,
        },
    }


class GatewayApp:
    """Transport-free request dispatcher over a gateway's state.

    ``deployed`` (optional) adds the live deployment's status/telemetry
    to ``/status`` and ``/metrics``; without it the app serves store
    state only (useful for tests and store-only federation followers).
    ``run_lock`` is the mutex the deployment driver holds while
    advancing the protocol clock — handlers take it around every read
    that touches live protocol objects, so HTTP threads never observe a
    half-stepped deployment. ``federation_key`` enables the
    ``/federation/*`` endpoints (absent, they 404).
    """

    def __init__(
        self,
        store: GatewayStateStore,
        deployed: "DeployedProtocol | None" = None,
        federation_key: bytes | None = None,
        run_lock: threading.Lock | None = None,
    ) -> None:
        """Wire the dispatcher; see the class docstring for the knobs."""
        self.store = store
        self.deployed = deployed
        self._federation_key = federation_key
        self.run_lock = run_lock if run_lock is not None else threading.Lock()
        self.registry = store.registry

    # -- dispatch ------------------------------------------------------------

    def handle(
        self, method: str, path: str, query: dict[str, str], body: dict | None = None
    ) -> tuple[int, dict]:
        """Route one request; returns ``(http_status, json_payload)``.

        Never raises: protocol-level failures map to 4xx payloads with
        an ``"error"`` key, and every response is counted under
        ``gateway.http.requests`` / ``gateway.http.errors``.
        """
        self.registry.inc("gateway.http.requests")
        try:
            status, payload = self._route(method, path, query, body)
        except FederationError as exc:
            status, payload = 403, {"error": str(exc)}
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        if status >= 400:
            self.registry.inc("gateway.http.errors")
        return status, payload

    def _route(
        self, method: str, path: str, query: dict[str, str], body: dict | None
    ) -> tuple[int, dict]:
        """The actual routing table (exceptions handled by :meth:`handle`)."""
        if path == "/federation/pull":
            if method != "POST":
                return 405, {"error": "POST only"}
            if self._federation_key is None:
                return 404, {"error": "federation is not enabled on this gateway"}
            if not isinstance(body, dict):
                return 400, {"error": "expected a JSON object body"}
            return 200, handle_pull(self.store, self._federation_key, body)
        if method != "GET":
            return 405, {"error": "GET only"}
        if path == "/status":
            return 200, self._status()
        if path == "/nodes":
            # One lock acquisition for both: a cursor read after a
            # separate snapshot can be newer than the entries, and a
            # client resuming /updates from it would skip the gap.
            entries, cursor = self.store.snapshot_with_cursor()
            return 200, {
                "count": len(entries),
                "cursor": cursor,
                "nodes": [entry.to_wire() for entry in entries],
            }
        if path.startswith("/nodes/"):
            return self._node_detail(path[len("/nodes/"):])
        if path == "/readings":
            node_id = _int_param(query, "node", default=None)
            limit = int(_clamped(_int_param(query, "limit", default=64) or 64, 1, 1024))
            entries = self.store.recent(limit=limit, node_id=node_id)
            return 200, {
                "count": len(entries),
                "readings": [entry.to_wire() for entry in entries],
            }
        if path == "/metrics":
            return 200, self._metrics()
        if path == "/updates":
            return 200, self._updates(query)
        if path == "/federation/digest":
            if self._federation_key is None:
                return 404, {"error": "federation is not enabled on this gateway"}
            return 200, signed_digest(self.store, self._federation_key)
        return 404, {"error": f"no such endpoint {path}", "endpoints": list(_ENDPOINTS)}

    # -- endpoint bodies -----------------------------------------------------

    def _status(self) -> dict:
        """O(1) health summary: store stats + deployment counters."""
        result: dict = {"gateway": self.store.gateway_id, "store": self.store.stats()}
        if self.deployed is not None:
            with self.run_lock:
                deployment = deployment_status(self.deployed)
            # The full metric dump has its own endpoint; /status stays small.
            deployment.pop("telemetry", None)
            result["deployment"] = deployment
        return result

    def _metrics(self) -> dict:
        """The registry snapshot (deployment-wide when one is wired)."""
        if self.deployed is not None:
            with self.run_lock:
                return self.deployed.network.trace.telemetry.snapshot()
        return {"metrics": self.registry.snapshot()}

    def _node_detail(self, raw_id: str) -> tuple[int, dict]:
        """``/nodes/<id>``: latest entry plus bounded history."""
        try:
            node_id = int(raw_id)
        except ValueError:
            return 400, {"error": f"node id must be an integer, got {raw_id!r}"}
        latest = self.store.latest(node_id)
        if latest is None:
            return 404, {"error": f"no state for node {node_id}"}
        return 200, {
            "node": node_id,
            "latest": latest.to_wire(),
            "history": [entry.to_wire() for entry in self.store.node_history(node_id)],
        }

    def _updates(self, query: dict[str, str]) -> dict:
        """``/updates``: cursor-resumable long-poll increment."""
        cursor = _int_param(query, "cursor", default=0) or 0
        limit = int(_clamped(_int_param(query, "limit", default=256) or 256, 1, 1024))
        timeout_raw = query.get("timeout", "0")
        try:
            timeout_s = float(timeout_raw)
        except ValueError as exc:
            raise ValueError(f"timeout must be a number, got {timeout_raw!r}") from exc
        timeout_s = _clamped(timeout_s, 0.0, MAX_POLL_TIMEOUT_S)
        self.registry.inc("gateway.stream.polls")
        if timeout_s > 0:
            self.store.wait_for_updates(cursor, timeout_s)
        return self.store.updates_since(cursor, limit=limit)


def _int_param(query: dict[str, str], name: str, default: int | None) -> int | None:
    """Parse an optional integer query parameter (``ValueError`` on junk)."""
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _clamped(value: float, lo: float, hi: float) -> float:
    """``value`` clamped into ``[lo, hi]``."""
    return max(lo, min(hi, value))


class _Handler(BaseHTTPRequestHandler):
    """Socket-facing adapter: parse, dispatch to the app, write JSON."""

    #: Injected per-server by :class:`GatewayHttpServer`.
    app: GatewayApp
    server_version = "repro-gateway/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve one GET."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve one POST."""
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        body: dict | None = None
        if method == "POST":
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                self.close_connection = True  # its body stays unread
                error = f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]"
                self._respond(400 if length < 0 else 413, {"error": error})
                self.app.registry.inc("gateway.http.errors")
                return
            try:
                parsed = json.loads(self.rfile.read(length).decode() or "null")
            except (ValueError, UnicodeDecodeError):
                self._respond(400, {"error": "request body is not valid JSON"})
                self.app.registry.inc("gateway.http.errors")
                return
            body = parsed if isinstance(parsed, dict) else None
        status, payload = self.app.handle(method, parts.path, query, body)
        self._respond(status, payload)

    def _respond(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-write; nothing to clean up

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence per-request stderr chatter (metrics count requests)."""


class GatewayHttpServer:
    """A threaded HTTP server bound to one :class:`GatewayApp`.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address` / :attr:`url`. Use as a context manager or call
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(self, app: GatewayApp, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind (but do not start serving) on ``host:port``."""
        handler = type("BoundHandler", (_Handler,), {"app": app})
        self.app = app
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def started(self) -> bool:
        """Whether the serving thread is running."""
        return self._thread is not None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL peers and clients should use."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayHttpServer":
        """Serve requests on a daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="gateway-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "GatewayHttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
