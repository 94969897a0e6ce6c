"""Pin the reception pass: every receiver of a DATA broadcast decides as it always did.

Seeded n=100 clean loopback soaks run with receivers that take every
branch of a DATA frame's fan-out:

* a receive listener on the base-station runtime (the gateway's
  ingress tap);
* a sensor whose finite battery runs out mid-run, so it dies on a
  later reception;
* a non-agent application hosted on one sensor, which sees frames
  through ``on_frame`` like any app;
* a cluster the base station revokes mid-run, so its frames meet
  receivers that erased the key;
* a stale frame, sealed with a ``τ`` outside the freshness window;
* a frame sent twice, byte for byte (a replayed hop seq);
* a frame sealed under the revoked cluster's key after the revocation.

The variants run the same field with default settings, with hop ACKs
on, and with hop ACKs on and no forwarding jitter (a forward is sealed
inside the fan-out of the frame that triggered it). Two more wrap the
fabric in a fault plan: a seeded one with hop ACKs on (drop, duplicate,
reorder and corrupt on every link, delay jitter on a fixed subset of
links), so one fan-out mixes immediate, corrupted, delayed and
duplicated copies of a frame, and one that injects nothing, which must
match the default exactly. Each soak pins the delivered readings,
``frames_received`` of every node, the trace counters, the growth of
the crypto ``STATS`` totals and the executed-event count in one
sha256. Any change to the reception path that moves one decision, one
counter or one event fails here. A deliberate change to reception semantics re-records these
digests.

The setup variants pin key setup the same way. Seeded n=400 deployments
run with every LINKINFO receiver kind: the default field; a fault plan
with drop, duplicate, reorder and corrupt on every link and re-announced
setup frames, so one fan-out mixes immediate, corrupted and late copies;
a sensor hosting a non-agent application and one hosting a
``ProtocolAgent`` subclass; a sensor preloaded with another ``K_m``;
and a LINKINFO replayed after ``K_m`` is erased. Each pins every agent's
role, CID and keyring (insertion order and key material),
``frames_received`` of every node, the trace counters, the growth of the
crypto ``STATS`` totals and the executed-event count in one sha256.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.crypto import aead
from repro.crypto.keys import SymmetricKey
from repro.crypto.stats import STATS
from repro.protocol import messages, setup
from repro.protocol.agent import ProtocolAgent
from repro.protocol.config import ProtocolConfig
from repro.protocol.forwarding import wrap_hop
from repro.runtime.cluster import deploy_live
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.workloads import SoakWorkload

N = 100
DENSITY = 10.0
SEED = 11
RATE = 150.0
DURATION_S = 1.5
SETTLE_S = 1.5
FRESHNESS_S = 2.0

#: (sha256 of the reception record, readings delivered) per variant.
EXPECTED = {
    "default": ("ff0848771dbdd7f96c195ba74e6a89a5d07e58ad3eddf6e6a3819ac0eea74203", 202),
    "hop_acks": ("c66f3944bd6c32deccb8a8684ffddccfc0f339f5b8d446fd4e04632685538032", 202),
    "no_jitter": ("52967d85089784af5124499da28bc6e6665a04d0ef7a6e882cd47df1035080c3", 202),
    "faulted": ("23fb32d937598efd077418a02cdcab45a7c8c2288586d852239dea882d541068", 191),
    # A fault plan that injects nothing changes nothing: the default's digest.
    "noop_faults": ("ff0848771dbdd7f96c195ba74e6a89a5d07e58ad3eddf6e6a3819ac0eea74203", 202),
}

CONFIGS = {
    "default": ProtocolConfig(freshness_window_s=FRESHNESS_S),
    "hop_acks": ProtocolConfig(freshness_window_s=FRESHNESS_S, hop_ack_enabled=True),
    "no_jitter": ProtocolConfig(
        freshness_window_s=FRESHNESS_S, hop_ack_enabled=True, forward_jitter_s=0.0
    ),
    "faulted": ProtocolConfig(freshness_window_s=FRESHNESS_S, hop_ack_enabled=True),
    "noop_faults": ProtocolConfig(freshness_window_s=FRESHNESS_S),
}

_LINK_FAULTS = LinkFaults(drop=0.1, duplicate=0.05, reorder=0.05, corrupt=0.05)
_DELAYED_LINK_FAULTS = replace(_LINK_FAULTS, delay_jitter_s=0.003)

#: Every link faulty; about one link in seven also delays every delivery.
FAULTS = FaultPlan(
    seed=SEED,
    defaults=_LINK_FAULTS,
    per_link={
        (s, r): _DELAYED_LINK_FAULTS
        for s in range(N + 1)
        for r in range(N + 1)
        if s != r and (s + 2 * r) % 7 == 0
    },
)

#: Fault plan per variant (none elsewhere).
FAULT_PLANS = {"faulted": FAULTS, "noop_faults": FaultPlan(seed=SEED)}


class _Recorder:
    """A non-agent application: hashes every frame it is handed."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.frames = 0

    def on_frame(self, sender_id: int, frame: bytes) -> None:
        self.frames += 1
        self.digest.update(sender_id.to_bytes(4, "big") + frame)


def _c1(reading: bytes) -> bytes:
    """A plaintext inner envelope from source 7."""
    return b"\x00\x00\x00\x07\x00" + reading


def _reception_record(config: ProtocolConfig, fault_plan: FaultPlan | None = None) -> dict:
    before = STATS.snapshot()
    deployed, _metrics = deploy_live(
        n=N,
        density=DENSITY,
        seed=SEED,
        transport="loopback",
        config=config,
        fault_plan=fault_plan,
    )
    deployed.assign_gradient()
    network = deployed.network
    transport = getattr(network.transport, "inner", network.transport)
    registry = network.trace.registry
    events_before = transport.events_executed

    ingress: list[tuple[float, int, int]] = []

    def on_ingress(sender: int, frame: bytes) -> None:
        registry.inc("gateway.ingest.frames")
        ingress.append((deployed.now(), sender, len(frame)))

    network.bs.add_receive_listener(on_ingress)

    by_hops = sorted((deployed.gradient.level(nid), nid) for nid in deployed.gradient.routable())
    # A forwarder two hops out runs on a battery that lasts about a second.
    battery_node = next(nid for hops, nid in by_hops if hops == 2)
    meter = network.nodes[battery_node].energy
    meter.capacity = meter.consumed + 60_000.0
    # A sensor one hop further out hosts a plain recorder instead of its agent.
    recorder_node = next(nid for hops, nid in by_hops if hops == 3 and nid != battery_node)
    recorder = _Recorder()
    network.nodes[recorder_node].app = recorder
    del deployed.agents[recorder_node]

    one_hop = [deployed.agent(nid) for hops, nid in by_hops if hops == 1]
    sender = one_hop[0]
    # A cluster in earshot of the base station is revoked mid-run.
    revoked = next(a for a in one_hop if a.state.cid != sender.state.cid)
    revoked_key = revoked.state.keyring.get(revoked.state.cid).material

    def send(agent, key: bytes, age_s: float, c1: bytes, times: int = 1) -> None:
        st = agent.state
        frame = wrap_hop(
            key,
            st.cid if st.cid is not None else revoked_cid,
            st.node_id,
            st.next_hop_seq(),
            deployed.gradient.level(st.node_id),
            deployed.now() - age_s,
            c1,
            deployed.config.aead,
        )
        for _ in range(times):
            agent.node.broadcast(frame)

    revoked_cid = revoked.state.cid
    own_key = sender.state.keyring.get(sender.state.cid).material
    deployed.schedule(0.4, lambda: send(sender, own_key, 10 * FRESHNESS_S, _c1(b"stale")))
    deployed.schedule(0.5, lambda: send(sender, own_key, 0.0, _c1(b"twice"), times=2))
    deployed.schedule(0.7, lambda: deployed.bs_agent.revoke_clusters([revoked_cid]))
    deployed.schedule(1.0, lambda: send(revoked, revoked_key, 0.0, _c1(b"revoked")))
    # The recorder's node keeps its gradient level, but it has no agent.
    sources = [nid for nid in deployed.gradient.routable() if nid != recorder_node]
    workload = SoakWorkload(
        deployed, RATE, DURATION_S, warmup_s=0.2, sources=sources, seed=SEED
    )
    workload.start()
    deployed.run_for(DURATION_S + SETTLE_S)
    after = STATS.snapshot()
    assert not network.nodes[battery_node].alive
    assert recorder.frames > 0
    return {
        "delivered": [
            (r.time, r.source, r.data.hex(), r.was_encrypted)
            for r in deployed.bs_agent.delivered
        ],
        "frames_received": [network.nodes[nid].frames_received for nid in sorted(network.nodes)],
        "counters": dict(sorted(network.trace.counters.items())),
        "stats": {name: after[name] - before[name] for name in after},
        "events": transport.events_executed - events_before,
        "ingress": ingress,
        "recorder": (recorder.frames, recorder.digest.hexdigest()),
        "bs_rejected": deployed.bs_agent.rejected,
    }


@pytest.mark.parametrize("variant", sorted(EXPECTED))
def test_reception_pass_is_pinned(variant):
    aead._opened.clear()
    record = _reception_record(CONFIGS[variant], FAULT_PLANS.get(variant))
    counters = record["counters"]
    # Every branch the soak is built to reach was reached.
    for name in (
        "drop.data_stale",
        "drop.data_replay",
        "drop.data_unknown_cluster",
        "drop.data_duplicate",
        "drop.data_uphill",
        "bs.drop_revoked_cluster",
        "forward.dedup_hit",
    ):
        assert counters.get(name, 0) > 0, name
    if variant == "faulted":
        for name in ("fault.drop", "fault.duplicate", "fault.reorder", "fault.corrupt", "fault.delay"):
            assert counters.get(name, 0) > 0, name
        assert counters.get("drop.data_bad_auth", 0) + counters.get("drop.data_malformed", 0) > 0
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert (digest, len(record["delivered"])) == EXPECTED[variant]


# ---------------------------------------------------------------------------
# Key setup: every receiver of a LINKINFO broadcast decides as it always did
# ---------------------------------------------------------------------------

SETUP_N = 400
SETUP_SEED = 13
#: Sensors (among the best-connected) given another application, another
#: K_m or a replayed LINKINFO.
RECORDER_NODE, SUBCLASS_NODE, OTHER_KM_NODE, REPLAYED_NODE = 94, 259, 278, 220

#: sha256 of the setup record per variant.
SETUP_EXPECTED = {
    "default": "056aaa2521c347c3b217e543e6fa3bd951c9f808f2b66808b00ea36dff0c1899",
    "faulted": "82c77c9b2b92afa131018a61ef0c4919287957f65b08128b1e5448ca5d5dcb56",
    "other_apps": "d951a32d379bfe273a4b8840fb018c33b514023d38bcb98ed205eff14d0a581a",
    "other_km": "7279480e06fe487d6de64bcb51580861dab5eeb63071854c5da1def2aab84876",
    "replayed": "3a36a7ca63d70759733ba4e034b75251511fc519e316bf76aec4515d98018bd9",
}

SETUP_CONFIGS = {
    "faulted": ProtocolConfig(setup_reannounce_count=2, setup_reannounce_interval_s=0.3),
}

SETUP_FAULTS = FaultPlan(seed=SETUP_SEED, defaults=_LINK_FAULTS)


class _Subclassed(ProtocolAgent):
    """A ``ProtocolAgent`` subclass: handed frames through ``on_frame``."""


def _setup_record(variant: str, monkeypatch) -> dict:
    recorder = _Recorder()
    linkinfo: list[bytes] = []
    provision = setup.provision

    def provision_variant(network, config=None):
        deployed = provision(network, config)
        network.radio.monitors.append(
            lambda _time, sender, frame: linkinfo.append(frame)
            if sender == REPLAYED_NODE and frame[:1] == bytes([messages.LINKINFO])
            else None
        )
        if variant == "other_apps":
            network.nodes[RECORDER_NODE].app = recorder
            del deployed.agents[RECORDER_NODE]
            deployed.agents[SUBCLASS_NODE].__class__ = _Subclassed
        elif variant == "other_km":
            deployed.agents[OTHER_KM_NODE].state.preload.master_key = SymmetricKey(
                bytes(range(100, 116)), label="K_m'"
            )
        return deployed

    monkeypatch.setattr(setup, "provision", provision_variant)
    before = STATS.snapshot()
    deployed, _metrics = deploy_live(
        n=SETUP_N,
        density=DENSITY,
        seed=SETUP_SEED,
        transport="loopback",
        config=SETUP_CONFIGS.get(variant),
        fault_plan=SETUP_FAULTS if variant == "faulted" else None,
    )
    network = deployed.network
    if variant == "replayed":
        # The sensor's own LINKINFO, heard again once K_m is erased.
        network.nodes[REPLAYED_NODE].broadcast(linkinfo[0])
        deployed.run_for(0.5)
    after = STATS.snapshot()
    transport = getattr(network.transport, "inner", network.transport)
    agents = {}
    for nid, agent in sorted(deployed.agents.items()):
        st = agent.state
        keys = hashlib.sha256(b"".join(st.keyring.get(cid).material for cid in st.keyring._keys))
        agents[nid] = (st.role.value, st.cid, list(st.keyring._keys), keys.hexdigest())
    return {
        "agents": agents,
        "frames_received": [network.nodes[nid].frames_received for nid in sorted(network.nodes)],
        "counters": dict(sorted(network.trace.counters.items())),
        "stats": {name: after[name] - before[name] for name in after},
        "events": transport.events_executed,
        "recorder": (recorder.frames, recorder.digest.hexdigest()),
    }


@pytest.mark.parametrize("variant", sorted(SETUP_EXPECTED))
def test_setup_reception_is_pinned(variant, monkeypatch):
    aead._opened.clear()
    record = _setup_record(variant, monkeypatch)
    counters = record["counters"]
    assert counters["link.neighbor_cluster"] > 0
    # Every branch the variant is built to reach was reached.
    if variant == "faulted":
        for name in ("fault.drop", "fault.duplicate", "fault.reorder", "fault.corrupt"):
            assert counters.get(name, 0) > 0, name
        assert counters["tx.linkinfo_reannounce"] > 0
        assert counters["drop.linkinfo_bad_auth"] > 0
    if variant == "other_apps":
        assert record["recorder"][0] > 0
    if variant == "other_km":
        assert counters["drop.linkinfo_bad_auth"] > 0
    if variant == "replayed":
        assert counters["drop.linkinfo_after_setup"] > 0
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    assert digest == SETUP_EXPECTED[variant]
