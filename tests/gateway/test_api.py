"""HTTP query API: routing, status codes, the long-poll update stream."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.gateway.api import MAX_BODY_BYTES, GatewayApp, GatewayHttpServer
from repro.gateway.store import GatewayStateStore
from repro.protocol.base_station import DeliveredReading


def reading(source=1, data=b"r", time=1.0):
    return DeliveredReading(time=time, source=source, data=data, was_encrypted=True)


@pytest.fixture
def app():
    store = GatewayStateStore("gw0")
    for k in range(3):
        store.ingest(reading(source=k, data=b"%d" % k, time=float(k)))
    return GatewayApp(store)


# -- routing without sockets -------------------------------------------------


def test_status_reports_store_stats(app):
    status, payload = app.handle("GET", "/status", {})
    assert status == 200
    assert payload["store"]["nodes"] == 3
    assert "deployment" not in payload  # no live service wired


def test_nodes_lists_every_latest_entry(app):
    status, payload = app.handle("GET", "/nodes", {})
    assert status == 200
    assert payload["count"] == 3
    assert [n["node"] for n in payload["nodes"]] == [0, 1, 2]


def test_node_detail_has_latest_and_history(app):
    app.store.ingest(reading(source=1, data=b"new", time=9.0))
    status, payload = app.handle("GET", "/nodes/1", {})
    assert status == 200
    assert payload["latest"]["payload_text"] == "new"
    assert len(payload["history"]) == 2


def test_node_detail_errors(app):
    assert app.handle("GET", "/nodes/999", {})[0] == 404
    assert app.handle("GET", "/nodes/bogus", {})[0] == 400


def test_readings_respects_node_and_limit_params(app):
    status, payload = app.handle("GET", "/readings", {"node": "2"})
    assert status == 200
    assert [r["node"] for r in payload["readings"]] == [2]
    _, limited = app.handle("GET", "/readings", {"limit": "2"})
    assert limited["count"] == 2
    assert app.handle("GET", "/readings", {"limit": "junk"})[0] == 400


def test_metrics_exposes_registry_snapshot(app):
    status, payload = app.handle("GET", "/metrics", {})
    assert status == 200
    assert payload["metrics"]["counters"]["gateway.store.applied"] == 3


def test_updates_resume_cursor(app):
    _, first = app.handle("GET", "/updates", {"cursor": "0", "limit": "2"})
    assert len(first["updates"]) == 2 and not first["resync"]
    _, rest = app.handle("GET", "/updates", {"cursor": str(first["cursor"])})
    assert len(rest["updates"]) == 1
    assert rest["cursor"] == app.store.cursor


def test_unknown_path_404_lists_endpoints(app):
    status, payload = app.handle("GET", "/nope", {})
    assert status == 404
    assert "/updates" in payload["endpoints"]


def test_method_and_federation_guards(app):
    assert app.handle("PUT", "/status", {})[0] == 405
    assert app.handle("GET", "/federation/pull", {})[0] == 405
    # Federation endpoints 404 when no key is configured.
    assert app.handle("POST", "/federation/pull", {}, {"payload": {}, "mac": ""})[0] == 404
    assert app.handle("GET", "/federation/digest", {})[0] == 404


def test_requests_and_errors_are_counted(app):
    before = app.registry.counter("gateway.http.requests")
    app.handle("GET", "/status", {})
    app.handle("GET", "/nope", {})
    assert app.registry.counter("gateway.http.requests") == before + 2
    assert app.registry.counter("gateway.http.errors") >= 1


# -- over a real socket ------------------------------------------------------


def http_get(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, json.loads(response.read().decode())


def test_http_server_serves_endpoints():
    store = GatewayStateStore("gw0")
    store.ingest(reading(source=7, data=b"live", time=1.0))
    with GatewayHttpServer(GatewayApp(store)) as server:
        assert server.started
        status, payload = http_get(server.url + "/status")
        assert status == 200 and payload["gateway"] == "gw0"
        _, nodes = http_get(server.url + "/nodes")
        assert nodes["count"] == 1
        _, detail = http_get(server.url + "/nodes/7")
        assert detail["latest"]["payload_text"] == "live"
        with pytest.raises(urllib.error.HTTPError) as err:
            http_get(server.url + "/missing")
        assert err.value.code == 404
    assert not server.started  # stop() is part of __exit__


def test_http_long_poll_sees_concurrent_ingest():
    store = GatewayStateStore("gw0")
    with GatewayHttpServer(GatewayApp(store)) as server:
        timer = threading.Timer(0.2, lambda: store.ingest(reading(source=1)))
        timer.start()
        try:
            _, payload = http_get(server.url + "/updates?cursor=0&timeout=10")
        finally:
            timer.cancel()
    assert len(payload["updates"]) == 1
    assert payload["cursor"] == 1


def test_http_post_rejects_malformed_json():
    with GatewayHttpServer(GatewayApp(GatewayStateStore("gw0"))) as server:
        request = urllib.request.Request(
            server.url + "/federation/pull",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400


def raw_post(url, content_length):
    """POST to /federation/pull with a raw ``Content-Length`` and no body."""
    host, port = url.removeprefix("http://").split(":")
    request = (
        "POST /federation/pull HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    )
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(request.encode())
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


@pytest.mark.parametrize(
    "length, status",
    [(10**12, 413), (MAX_BODY_BYTES + 1, 413), (-1, 400), ("abc", 400), ("1.5", 400)],
)
def test_http_post_body_length_is_bounded(length, status):
    # Answered from the header alone: the server never waits for (or
    # allocates) the announced body, and closes the connection.
    app = GatewayApp(GatewayStateStore("gw0"))
    with GatewayHttpServer(app) as server:
        got, payload = raw_post(server.url, length)
        assert got == status and "error" in payload
        assert app.registry.counter("gateway.http.errors") == 1
        assert http_get(server.url + "/status")[0] == 200


def test_server_start_is_single_shot():
    server = GatewayHttpServer(GatewayApp(GatewayStateStore("gw0")))
    try:
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
    finally:
        server.stop()
    server.stop()  # idempotent after release
