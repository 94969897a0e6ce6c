"""No full key material in Trace events or JSONL metric exports.

The repr-level guarantee lives in :mod:`tests.crypto.test_keys`; this is
the system-level twin: deploy a real network with event logging on,
harvest every symmetric key the deployment holds, and prove none of
their bytes survive serialization into the operator-facing surfaces
(`Trace` events, JSONL export). This is the runtime check backing
ldplint's KEY001 rule — the static rule stops new leaks entering the
codebase, this test proves the current code leaks nothing.
"""

import json

import pytest

from repro.crypto.keys import KeyErasedError, SymmetricKey
from repro.protocol.api import SecureSensorNetwork
from repro.sim.network import Network
from repro.sim.trace import Trace
from repro.telemetry import JsonlWriter, TelemetryEvent


@pytest.fixture(scope="module")
def deployment():
    network = Network.build(12, density=6.0, seed=3)
    # Swap in a buffering trace before setup so every setup event lands.
    network.trace = Trace(log_limit=2000)
    return SecureSensorNetwork.from_network(network)


def _live_keys(net: SecureSensorNetwork) -> list[SymmetricKey]:
    """Every SymmetricKey the deployment still holds after setup."""
    deployed = net.deployed
    keys: list[SymmetricKey] = [deployed.registry.kmc]
    keys.extend(deployed.registry.node_keys.values())
    for agent in deployed.agents.values():
        preload = agent.state.preload
        for key in (preload.node_key, preload.cluster_key, preload.master_key):
            keys.append(key)
        ring = agent.state.keyring
        keys.extend(ring.get(cid) for cid in ring.cluster_ids())
    return keys


def _leak_needles(keys: list[SymmetricKey]) -> set[str]:
    """Strings whose appearance in serialized output means a key leaked."""
    needles: set[str] = set()
    for key in keys:
        try:
            material = key.material
        except KeyErasedError:
            continue
        needles.add(material.hex())
        needles.add(repr(material))
        needles.add(str(list(material)))
    return needles


def test_deployment_holds_keys_to_check(deployment):
    # Sanity: the harvest is non-trivial, so the leak checks below bite.
    keys = _live_keys(deployment)
    assert len(keys) > 12
    assert len(_leak_needles(keys)) > 5


def test_trace_events_never_contain_key_material(deployment):
    events = deployment.network.trace.events.events
    assert events, "event logging was enabled; setup must have recorded events"
    blob = json.dumps([event.to_record() for event in events], default=repr)
    for needle in _leak_needles(_live_keys(deployment)):
        assert needle not in blob


def test_jsonl_export_never_contains_key_material(deployment, tmp_path):
    path = tmp_path / "metrics.jsonl"
    trace = deployment.network.trace
    with JsonlWriter(path, wall_clock=lambda: 0.0) as writer:
        for event in trace.events.events:
            writer.write_event(event)
        writer.write_sample(1.0, trace.registry)
        writer.write_summary(2.0, trace.registry, nodes=12)
    blob = path.read_text(encoding="utf-8")
    assert blob.count("\n") >= 3
    for needle in _leak_needles(_live_keys(deployment)):
        assert needle not in blob


def test_event_carrying_a_key_object_exports_redacted(tmp_path):
    """Even if a key object is (wrongly) put in an event, the export
    shows the redacted repr, never material."""
    key = SymmetricKey(bytes(range(16)), label="K_x")
    event = TelemetryEvent(time=0.0, kind="debug.key", details={"key": repr(key)})
    path = tmp_path / "one.jsonl"
    with JsonlWriter(path, wall_clock=lambda: 0.0) as writer:
        writer.write_event(event)
    blob = path.read_text(encoding="utf-8")
    assert "fp=" in blob
    assert key.material.hex() not in blob
