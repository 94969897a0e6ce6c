"""Deployment status snapshots under adverse state."""

import json

from repro.gateway.api import GatewayApp, deployment_status
from repro.gateway.store import GatewayStateStore
from repro.protocol.setup import deploy
from repro.runtime import deploy_live
from repro.workloads import PeriodicReporting
from tests.conftest import run_for, small_deployment


def reported_deployment(seed=70, rounds=1):
    deployed = small_deployment(n=60, seed=seed)
    sources = [nid for nid, a in deployed.agents.items() if a.state.hops_to_bs > 0]
    workload = PeriodicReporting(deployed, sources, period_s=5.0, rounds=rounds)
    workload.start()
    run_for(deployed, workload.duration_s + 10.0)
    return deployed


# -- O(1) status counters stay consistent with the delivery log --------------


def test_status_counters_match_delivered_log():
    deployed = reported_deployment()
    assert len(deployed.bs_agent.delivered) > 0
    status = deployment_status(deployed)
    assert status["readings_delivered"] == len(deployed.bs_agent.delivered)
    assert status["distinct_sources"] == len(
        {r.source for r in deployed.bs_agent.delivered}
    )


# -- adverse states ----------------------------------------------------------


def test_snapshot_with_revoked_clusters():
    deployed = reported_deployment(seed=72)
    victim = sorted(deployed.agents)[5]
    cids = list(deployed.agents[victim].state.keyring.cluster_ids())
    deployed.bs_agent.revoke_clusters(cids)
    run_for(deployed, 10.0)
    status = deployment_status(deployed)
    assert status["revoked_clusters"] == sorted(cids)
    json.loads(json.dumps(status))  # still serializes cleanly


def test_snapshot_with_offline_and_restored_nodes():
    deployed, _ = deploy_live(n=40, density=10.0, seed=73, transport="loopback")
    total = deployment_status(deployed)["nodes_alive"]
    down = sorted(deployed.network.nodes)[1:4]
    for nid in down:
        deployed.network.nodes[nid].offline()
    assert deployment_status(deployed)["nodes_alive"] == total - len(down)
    for nid in down:
        deployed.network.nodes[nid].online()
    assert deployment_status(deployed)["nodes_alive"] == total


def test_snapshot_of_empty_deployment():
    deployed, _ = deploy(30, 10.0, seed=74)  # key setup ran, no readings yet
    status = deployment_status(deployed)
    assert status["readings_delivered"] == 0
    assert status["distinct_sources"] == 0
    assert status["revoked_clusters"] == []
    assert status["clusters_formed"] > 0  # setup itself succeeded


def test_http_status_over_empty_deployment():
    deployed, _ = deploy(30, 10.0, seed=74)
    store = GatewayStateStore("gw0")
    deployed.bs_agent.add_delivery_listener(store.ingest)
    app = GatewayApp(store, deployed=deployed)
    status, payload = app.handle("GET", "/status", {})
    assert status == 200
    assert payload["store"]["nodes"] == 0
    assert payload["deployment"]["readings_delivered"] == 0
    assert "telemetry" not in payload["deployment"]  # /metrics owns the dump
    _, nodes = app.handle("GET", "/nodes", {})
    assert nodes == {"count": 0, "cursor": 0, "nodes": []}
