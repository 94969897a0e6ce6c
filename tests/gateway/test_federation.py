"""Federation: two region-sharded gateways converge to identical state."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gateway.api import GatewayApp, GatewayHttpServer
from repro.gateway.federation import (
    FederationError,
    FederationPeer,
    apply_pull_body,
    derive_federation_key,
    federate_once,
    handle_pull,
    pull_request_body,
    sign_payload,
    verify_payload,
)
from repro.gateway.store import GatewayStateStore, StateEntry, parse_region
from repro.protocol.setup import deploy
from repro.telemetry.registry import MetricsRegistry

KEY = derive_federation_key(b"test-master-secret")


def sharded_pair(seed=3, n=40):
    """One deployment, two gateways each ingesting half the sources."""
    deployed, _ = deploy(n, 10.0, seed=seed)
    registry = deployed.network.trace.registry
    a = GatewayStateStore("gwA", region=parse_region("mod:0/2"), registry=registry)
    b = GatewayStateStore("gwB", region=parse_region("mod:1/2"), registry=MetricsRegistry())
    deployed.bs_agent.add_delivery_listener(a.ingest)
    deployed.bs_agent.add_delivery_listener(b.ingest)
    return deployed, a, b


def drive_workload(deployed, rounds=2):
    from repro.workloads import PeriodicReporting

    sources = deployed.gradient.routable()
    workload = PeriodicReporting(deployed, sources, period_s=5.0, rounds=rounds)
    workload.start()
    deployed.run_for(workload.duration_s + 10.0)
    return sources


def wire_snapshots(store):
    return [entry.to_wire() for entry in store.snapshot()]


# -- the headline property ---------------------------------------------------


def test_sharded_gateways_converge_to_identical_state():
    deployed, a, b = sharded_pair()
    drive_workload(deployed)
    # Before sync each gateway only knows its own half.
    assert a.node_ids() and b.node_ids()
    assert not set(a.node_ids()) & set(b.node_ids())
    applied_a, applied_b = federate_once(a, b, KEY)
    assert applied_a and applied_b
    assert wire_snapshots(a) == wire_snapshots(b)
    assert a.vector_snapshot() == b.vector_snapshot()
    assert set(a.node_ids()) == set(a.node_ids()) | set(b.node_ids())
    # The gateway.* metric contract: emitted into the deployment registry.
    counters = deployed.network.trace.registry.counters
    for name in (
        "gateway.ingest.readings",
        "gateway.ingest.filtered",
        "gateway.store.applied",
        "gateway.federation.pulls",
        "gateway.federation.entries_applied",
        "gateway.federation.entries_sent",
    ):
        assert counters[name] > 0, name


def test_federation_is_idempotent_and_order_independent():
    deployed, a, b = sharded_pair(seed=4)
    drive_workload(deployed, rounds=1)
    federate_once(a, b, KEY)
    snapshot = wire_snapshots(a)
    # Replaying sync rounds in either direction changes nothing.
    applied_a, applied_b = federate_once(a, b, KEY)
    assert (applied_a, applied_b) == (0, 0)
    federate_once(b, a, KEY)
    assert wire_snapshots(a) == wire_snapshots(b) == snapshot


def test_new_readings_after_sync_flow_on_next_pull():
    deployed, a, b = sharded_pair(seed=5)
    drive_workload(deployed, rounds=1)
    federate_once(a, b, KEY)
    drive_workload(deployed, rounds=1)  # fresh readings on both halves
    assert wire_snapshots(a) != wire_snapshots(b)
    federate_once(a, b, KEY)
    assert wire_snapshots(a) == wire_snapshots(b)


# -- over real HTTP ----------------------------------------------------------


def test_pull_over_http_converges_and_counts_metrics():
    deployed, a, b = sharded_pair(seed=6)
    drive_workload(deployed, rounds=1)
    with GatewayHttpServer(GatewayApp(b, federation_key=KEY)) as server:
        peer = FederationPeer(server.url, KEY)
        applied, stale = peer.pull(a)
    assert applied == len(b.node_ids()) and stale == 0
    assert set(a.node_ids()) >= set(b.node_ids())
    assert a.registry.counter("gateway.federation.pulls") == 1


def test_pull_against_dead_peer_raises_federation_error():
    store = GatewayStateStore("gwA")
    peer = FederationPeer("http://127.0.0.1:9", KEY, timeout_s=0.5)
    with pytest.raises(FederationError):
        peer.pull(store)


# -- authenticity ------------------------------------------------------------


def test_tampered_pull_request_is_rejected():
    store = GatewayStateStore("gwB")
    store.merge([StateEntry(1, b"x", 1.0, "gwB", 1, True)])
    body = pull_request_body(GatewayStateStore("gwA"), KEY)
    body["payload"]["vector"] = {"gwB": 999}  # tamper after signing
    with pytest.raises(FederationError):
        handle_pull(store, KEY, body)
    assert store.registry.counter("gateway.federation.auth_failures") == 1


def test_non_integer_version_vector_is_rejected():
    store = GatewayStateStore("gwB")
    for seq in (float("inf"), "7x"):
        payload = {"gateway": "gwA", "vector": {"gwB": seq}}
        with pytest.raises(FederationError, match="version vector"):
            handle_pull(store, KEY, {"payload": payload, "mac": sign_payload(KEY, payload)})


def test_tampered_delta_is_not_merged():
    a = GatewayStateStore("gwA")
    b = GatewayStateStore("gwB")
    b.merge([StateEntry(1, b"x", 1.0, "gwB", 1, True)])
    response = handle_pull(b, KEY, pull_request_body(a, KEY))
    response["payload"]["entries"][0]["payload"] = b"evil".hex()
    with pytest.raises(FederationError):
        apply_pull_body(a, KEY, response)
    assert a.node_ids() == []  # nothing merged from a forged message
    assert a.registry.counter("gateway.federation.auth_failures") == 1


def _signed_delta(entries, evictions=None):
    payload = {"gateway": "gwB", "vector": {}, "entries": entries, "evictions": evictions or {}}
    return {"payload": payload, "mac": sign_payload(KEY, payload)}


def test_non_finite_times_from_a_peer_are_rejected():
    """A NaN-time entry never loses an LWW comparison: were it merged it
    would pin its node, and a later genuine reading would be counted as
    applied while the node kept reporting NaN."""
    store = GatewayStateStore("gwA")
    good = StateEntry(5, b"x", 1.0, "gwB", 1, True).to_wire()
    for time in ("nan", float("nan"), float("inf")):
        with pytest.raises(FederationError):
            apply_pull_body(store, KEY, _signed_delta([{**good, "time": time}]))
    for tombstone in (float("nan"), float("inf"), 10**400):
        with pytest.raises(FederationError):
            apply_pull_body(store, KEY, _signed_delta([], {"5": tombstone}))
    assert store.node_ids() == [] and store.evictions_snapshot() == {}
    later = {**good, "time": 1e9, "seq": 2}
    assert apply_pull_body(store, KEY, _signed_delta([later])) == (1, 0)
    assert store.latest(5).time == 1e9


def test_wrong_key_fails_verification():
    other = derive_federation_key(b"some-other-master")
    payload = {"gateway": "gwA", "vector": {}}
    tag = sign_payload(KEY, payload)
    assert verify_payload(KEY, payload, tag)
    assert not verify_payload(other, payload, tag)
    assert not verify_payload(KEY, payload, "not-hex")


def test_derived_keys_are_domain_separated_and_deterministic():
    master = b"m" * 16
    assert derive_federation_key(master) == derive_federation_key(master)
    assert derive_federation_key(master) != derive_federation_key(b"n" * 16)


# -- totality over arbitrary signed payloads ---------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
NUMBERISH = st.integers() | st.floats() | st.from_regex(r"-?[0-9]{1,4}", fullmatch=True)
#: A wire entry with any field missing or replaced by any value.
WIRE_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "node": NUMBERISH | JSON_VALUES,
        "payload": st.binary(max_size=4).map(bytes.hex) | JSON_VALUES,
        "time": NUMBERISH | JSON_VALUES,
        "origin": st.sampled_from(["gwA", "gwB", ""]) | JSON_VALUES,
        "seq": NUMBERISH | JSON_VALUES,
        "encrypted": JSON_VALUES,
    },
)
#: A pull request or response with every field anything at all.
PAYLOADS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "gateway": JSON_VALUES,
        "vector": JSON_VALUES | st.dictionaries(st.text(max_size=4), NUMBERISH | JSON_VALUES),
        "entries": JSON_VALUES | st.lists(WIRE_ENTRIES | JSON_VALUES, max_size=3),
        "evictions": JSON_VALUES | st.dictionaries(NUMBERISH.map(str), NUMBERISH | JSON_VALUES),
    },
)


def _populated_store():
    store = GatewayStateStore("gwA")
    store.merge(
        [StateEntry(1, b"x", 1.0, "gwA", 1, True), StateEntry(2, b"y", 2.0, "gwB", 3, False)]
    )
    return store


@given(PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_handle_pull_over_signed_payloads_raises_only_federation_error(payload):
    body = {"payload": payload, "mac": sign_payload(KEY, payload)}
    try:
        handle_pull(_populated_store(), KEY, body)
    except FederationError:
        pass


@given(PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_apply_pull_body_over_signed_payloads_raises_only_federation_error(payload):
    body = {"payload": payload, "mac": sign_payload(KEY, payload)}
    try:
        apply_pull_body(_populated_store(), KEY, body)
    except FederationError:
        pass
