"""Runtime parity: the transport must not change the protocol.

The runtime's whole claim is that agents are unmodified — so for the
same topology and seed, key setup must produce the same cluster structure
no matter which entry point or backend carries the frames:

* ``deploy`` and ``deploy_live`` are one function on one in-process
  fabric: clusters, per-node key counts, every trace counter and the
  executed-event count are identical, and wrapping the fabric in a no-op
  ``FaultPlan`` changes none of them;
* ``UdpTransport`` runs on real sockets in scaled wall time and is
  inherently racy — it only has to form a valid clustering (smoke test);
* the keystream backend (:func:`repro.crypto.kernels.set_backend`) moves
  nothing in the ``run-live`` snapshot but the two metrics that report it.
"""

import json

import pytest

from repro.cli import main

from repro.protocol.metrics import validate_clusters
from repro.protocol.setup import deploy
from repro.runtime import TRANSPORTS, build_transport, deploy_live
from repro.runtime.faults import FaultPlan

N, DENSITY, SEED = 80, 10.0, 7


def keys_by_node(deployed) -> dict[int, int]:
    return {nid: a.state.stored_key_count() for nid, a in deployed.agents.items()}


@pytest.mark.parametrize(
    "fault_plan", [None, FaultPlan(seed=SEED)], ids=["bare", "noop-faults"]
)
def test_deploy_and_deploy_live_are_one_run(fault_plan):
    assert deploy_live is deploy
    seed_deployed, seed_metrics = deploy(N, DENSITY, seed=SEED)
    live_deployed, live_metrics = deploy_live(
        N, DENSITY, seed=SEED, transport="loopback", fault_plan=fault_plan
    )
    assert live_metrics.clusters == seed_metrics.clusters
    assert keys_by_node(live_deployed) == keys_by_node(seed_deployed)
    assert dict(live_deployed.network.trace.counters) == dict(
        seed_deployed.network.trace.counters
    )
    live_fabric = live_deployed.network.transport
    assert (
        getattr(live_fabric, "inner", live_fabric).events_executed
        == seed_deployed.network.transport.events_executed
    )


def test_loopback_is_deterministic_across_runs():
    a_deployed, a_metrics = deploy_live(N, DENSITY, seed=SEED, transport="loopback")
    b_deployed, b_metrics = deploy_live(N, DENSITY, seed=SEED, transport="loopback")
    assert a_metrics.clusters == b_metrics.clusters
    assert dict(a_deployed.network.trace.counters) == dict(
        b_deployed.network.trace.counters
    )


def test_udp_forms_valid_clusters():
    deployed, metrics = deploy_live(25, 8.0, seed=3, transport="udp")
    assert metrics.cluster_count > 0
    assert validate_clusters(deployed) == []
    assert all(a.state.cid is not None for a in deployed.agents.values())


def test_unknown_transport_is_rejected_with_the_valid_names():
    assert TRANSPORTS == ("loopback", "udp")
    with pytest.raises(ValueError, match="loopback"):
        build_transport("tcp")
    with pytest.raises(ValueError, match="udp"):
        deploy_live(10, 6.0, seed=0, transport="sim")


def _flat(snapshot: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in snapshot.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}/"))
        else:
            flat[prefix + key] = value
    return flat


def test_run_live_differs_across_backends_only_in_the_backend_metrics(
    capsys, keystream_backend
):
    snapshots = {}
    for backend in ("vector", "pure"):
        keystream_backend(backend)
        assert main(["run-live", "--n", "40", "--rounds", "2"]) == 0
        snapshots[backend] = _flat(json.loads(capsys.readouterr().out))
    vector, pure = snapshots["vector"], snapshots["pure"]
    differing = {key for key in vector.keys() | pure.keys() if vector.get(key) != pure.get(key)}
    assert differing == {
        "telemetry/gauges/crypto.backend_vector",
        "telemetry/counters/crypto.keystream_vector_blocks",
    }
    assert vector["telemetry/gauges/crypto.backend_vector"] == 1.0
    assert pure["telemetry/gauges/crypto.backend_vector"] == 0.0
    assert vector["telemetry/counters/crypto.keystream_vector_blocks"] > 0
    assert pure.get("telemetry/counters/crypto.keystream_vector_blocks", 0) == 0
