"""State-store semantics: LWW merge, version vectors, the update log."""

import json
import math
import threading

import pytest
from hypothesis import given, strategies as st

from repro.gateway.store import GatewayStateStore, StateEntry, parse_region
from repro.protocol.base_station import DeliveredReading


def entry(node=1, payload=b"r", time=1.0, origin="gw0", seq=1, encrypted=True):
    return StateEntry(node, payload, time, origin, seq, encrypted)


def reading(source=1, data=b"r", time=1.0, encrypted=True):
    return DeliveredReading(time=time, source=source, data=data, was_encrypted=encrypted)


# -- LWW total order ---------------------------------------------------------


def test_newer_time_wins():
    store = GatewayStateStore("a")
    store.merge([entry(time=1.0, origin="x", seq=1), entry(time=2.0, origin="y", seq=1)])
    assert store.latest(1).time == 2.0


def test_older_time_loses_even_if_merged_later():
    store = GatewayStateStore("a")
    store.merge([entry(time=5.0, origin="x", seq=1)])
    store.merge([entry(time=1.0, origin="y", seq=1)])
    assert store.latest(1).origin == "x"


def test_time_tie_breaks_on_seq_then_origin():
    store = GatewayStateStore("a")
    store.merge([entry(time=1.0, origin="x", seq=2), entry(time=1.0, origin="y", seq=1)])
    assert store.latest(1).origin == "x"  # higher seq
    store2 = GatewayStateStore("a")
    store2.merge([entry(time=1.0, origin="x", seq=1), entry(time=1.0, origin="y", seq=1)])
    assert store2.latest(1).origin == "y"  # equal (time, seq): origin id decides


def test_merge_is_commutative_and_idempotent():
    batch = [
        entry(node=1, time=3.0, origin="x", seq=1),
        entry(node=1, time=7.0, origin="y", seq=1),
        entry(node=2, time=2.0, origin="x", seq=2),
        entry(node=2, time=1.0, origin="y", seq=2),
    ]
    forward, backward = GatewayStateStore("a"), GatewayStateStore("b")
    forward.merge(batch)
    backward.merge(list(reversed(batch)))
    backward.merge(batch)  # replay: idempotent
    assert [e.to_wire() for e in forward.snapshot()] == [
        e.to_wire() for e in backward.snapshot()
    ]
    assert forward.vector_snapshot() == backward.vector_snapshot()


def test_merge_applies_out_of_seq_order_batches():
    # Regression: entries_since() returns winners keyed by node id, not
    # seq — a batch like [seq=9, seq=3] must not let the vector jump to 9
    # and then reject seq=3 as stale. merge() sorts per-origin first.
    store = GatewayStateStore("a")
    applied, stale = store.merge(
        [entry(node=5, time=9.0, origin="x", seq=9), entry(node=2, time=3.0, origin="x", seq=3)]
    )
    assert (applied, stale) == (2, 0)
    assert store.node_ids() == [2, 5]
    assert store.vector_snapshot() == {"x": 9}


def test_stale_entries_counted_not_applied():
    store = GatewayStateStore("a")
    store.merge([entry(origin="x", seq=5)])
    applied, stale = store.merge([entry(origin="x", seq=4), entry(origin="x", seq=5)])
    assert (applied, stale) == (0, 2)
    assert store.registry.counter("gateway.store.stale") == 2


# -- ingest: region filtering and own-origin minting -------------------------


def test_ingest_mints_monotone_own_sequence():
    store = GatewayStateStore("gwX")
    assert store.ingest(reading(source=3, time=1.0))
    assert store.ingest(reading(source=3, time=2.0))
    latest = store.latest(3)
    assert latest.origin == "gwX" and latest.seq == 2
    assert store.vector_snapshot() == {"gwX": 2}
    assert store.registry.counter("gateway.ingest.readings") == 2


def test_region_filter_drops_foreign_sources():
    store = GatewayStateStore("gwX", region=parse_region("mod:0/2"))
    assert store.ingest(reading(source=4))
    assert not store.ingest(reading(source=5))  # odd id: peer's region
    assert store.node_ids() == [4]
    assert store.registry.counter("gateway.ingest.filtered") == 1


def test_parse_region_forms_and_errors():
    assert parse_region("all").owns(12345)
    mod = parse_region("mod:1/3")
    assert mod.owns(4) and not mod.owns(3)
    rng = parse_region("range:10-20")
    assert rng.owns(10) and rng.owns(20) and not rng.owns(21)
    for bad in ("", "mod:3/2", "mod:x/y", "range:9-3", "shard0"):
        with pytest.raises(ValueError):
            parse_region(bad)


# -- history and recency -----------------------------------------------------


def test_history_is_bounded_per_node():
    store = GatewayStateStore("a", history_limit=3)
    for k in range(1, 6):
        store.ingest(reading(source=1, time=float(k), data=b"%d" % k))
    history = store.node_history(1)
    assert [e.time for e in history] == [3.0, 4.0, 5.0]
    assert store.latest(1).time == 5.0


def test_recent_filters_by_node_and_limit():
    store = GatewayStateStore("a")
    for k in range(6):
        store.ingest(reading(source=k % 2, time=float(k)))
    ones = store.recent(node_id=1)
    assert [e.node for e in ones] == [1, 1, 1]
    assert [e.time for e in store.recent(limit=2)] == [4.0, 5.0]
    with pytest.raises(ValueError):
        store.recent(limit=0)


# -- the update stream -------------------------------------------------------


def test_updates_since_resumes_from_cursor():
    store = GatewayStateStore("a")
    for k in range(5):
        store.ingest(reading(source=k))
    first = store.updates_since(0, limit=3)
    assert len(first["updates"]) == 3 and not first["resync"]
    second = store.updates_since(first["cursor"])
    assert len(second["updates"]) == 2
    assert second["cursor"] == store.cursor
    assert store.updates_since(second["cursor"]) == {
        "cursor": store.cursor,
        "updates": [],
        "resync": False,
    }


def test_updates_since_signals_resync_after_eviction():
    store = GatewayStateStore("a", update_log_limit=4)
    for k in range(10):
        store.ingest(reading(source=k))
    stale = store.updates_since(1)  # entries 2..6 evicted from the window
    assert stale["resync"]
    assert stale["cursor"] == 10
    fresh = store.updates_since(6)  # oldest retained entry is 7
    assert not fresh["resync"] and len(fresh["updates"]) == 4


def test_wait_for_updates_unblocks_on_apply():
    store = GatewayStateStore("a")
    saw = threading.Event()

    def poller():
        if store.wait_for_updates(0, timeout_s=5.0):
            saw.set()

    thread = threading.Thread(target=poller)
    thread.start()
    store.ingest(reading())
    thread.join(timeout=5.0)
    assert saw.is_set()
    assert not store.wait_for_updates(store.cursor, timeout_s=0.01)


# -- wire form ---------------------------------------------------------------


def test_wire_roundtrip_and_printable_payload():
    original = entry(payload=b"reading 7", time=2.5, origin="gw1", seq=9)
    wire = original.to_wire()
    assert wire["payload_text"] == "reading 7"
    assert StateEntry.from_wire(wire) == original
    assert "payload_text" not in entry(payload=b"\x00\xff").to_wire()


def test_from_wire_rejects_malformed_entries():
    good = entry().to_wire()
    for corrupt in (
        {**good, "node": -1},
        {**good, "seq": 0},
        {**good, "origin": ""},
        {**good, "payload": "zz"},
        {k: v for k, v in good.items() if k != "time"},
    ):
        with pytest.raises(ValueError):
            StateEntry.from_wire(corrupt)


def test_from_wire_rejects_non_finite_time():
    good = entry().to_wire()
    for time in (float("nan"), float("inf"), float("-inf"), "nan", "-Infinity"):
        with pytest.raises(ValueError, match="time"):
            StateEntry.from_wire({**good, "time": time})
    # The JSON literals a peer can put on the wire parse to the same floats.
    for literal in ("NaN", "Infinity"):
        wire = json.loads(json.dumps(good).replace('"time": 1.0', f'"time": {literal}'))
        with pytest.raises(ValueError, match="time"):
            StateEntry.from_wire(wire)
    # An integer too large for a float is malformed, not an OverflowError.
    with pytest.raises(ValueError):
        StateEntry.from_wire({**good, "time": 10**400})


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["00ff", "nan", "Infinity", "1e400", "-1"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
WIRE_FIELDS = ("node", "payload", "time", "origin", "seq", "encrypted")


@given(
    st.one_of(
        JSON_VALUES,
        st.dictionaries(st.sampled_from(WIRE_FIELDS), JSON_VALUES, max_size=6),
        st.fixed_dictionaries({field: JSON_VALUES for field in WIRE_FIELDS}),
    )
)
def test_from_wire_raises_only_value_error(wire):
    try:
        parsed = StateEntry.from_wire(wire)
    except ValueError:
        return
    assert parsed.node >= 0 and parsed.seq >= 1 and parsed.origin
    assert math.isfinite(parsed.time)


def test_digest_and_stats_shapes():
    store = GatewayStateStore("gw9", region=parse_region("range:0-99"))
    store.ingest(reading(source=2))
    digest = store.digest()
    assert digest == {
        "gateway": "gw9",
        "region": "range:0-99",
        "vector": {"gw9": 1},
        "nodes": 1,
        "cursor": 1,
        "evicted": 0,
    }
    assert store.stats()["origins"] == 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        GatewayStateStore("")
    with pytest.raises(ValueError):
        GatewayStateStore("a", history_limit=0)
    with pytest.raises(ValueError):
        GatewayStateStore("a", update_log_limit=0)
