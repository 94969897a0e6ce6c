"""One decode per LINKINFO broadcast: ``LinkinfoReception``.

Phase 2 of key setup seals each node's ``CID | K_c`` once under the
network-wide ``K_m`` and every neighbour opens that same frame. One
:class:`~repro.protocol.agent.LinkinfoReception` per broadcast lets those
receivers share one verified decode while each still checks that it
holds ``K_m``, compares its own ``K_m`` with the verifying one and makes
its own keyring decisions. These tests pin that the sharing is invisible
and safe: a receiver with another ``K_m`` or other AEAD settings is
refused the shared decode, an erased ``K_m`` and a forged frame count
per receiver, shared decodes count in ``STATS`` what an open of their
own does, a damaged or late copy under fault injection decodes alone,
other apps get ``on_frame``, and a deployment behaves identically
without the shared passes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import aead
from repro.crypto.keys import SymmetricKey
from repro.crypto.stats import STATS
from repro.protocol import messages, setup
from repro.protocol.agent import LinkinfoReception, ProtocolAgent
from repro.protocol.config import ProtocolConfig
from repro.runtime.cluster import build_transport, deploy_live
from repro.runtime.faults import FaultInjectingTransport, FaultPlan, LinkFaults
from repro.sim.network import Network
from repro.workloads import SoakWorkload

SENDER, CID = 3, 3
CLUSTER_KEY = bytes(range(16, 32))
OTHER_KM = bytes(range(100, 116))


@pytest.fixture(autouse=True)
def empty_memo():
    """Each test starts from an empty open memo and leaves none behind."""
    aead._opened.clear()
    yield
    aead._opened.clear()


def _provisioned(transport=None):
    """Agents holding ``K_m``, before any setup timer is armed."""
    network = Network.build(
        40, 8.0, seed=3, transport=transport or build_transport("loopback")
    )
    return setup.provision(network, ProtocolConfig())


def _km(deployed) -> bytes:
    return deployed.agents[SENDER].state.preload.master_key.material


def _linkinfo(deployed, km: bytes | None = None) -> bytes:
    """``SENDER``'s LINKINFO, sealed (and so memo-primed) under ``km``."""
    return messages.encode_linkinfo(
        km or _km(deployed), SENDER, CID, CLUSTER_KEY, deployed.config.aead
    )


def _receivers(deployed, count: int) -> list[ProtocolAgent]:
    receivers = [agent for nid, agent in sorted(deployed.agents.items()) if nid != SENDER]
    return receivers[:count]


def _receive(deployed, frame: bytes, receivers) -> None:
    """One fan-out of ``frame`` to ``receivers``, in order."""
    reception = LinkinfoReception(frame, deployed.now(), deployed.network.trace)
    for receiver in receivers:
        reception.deliver(receiver, SENDER)
    reception.close()


def _count_decodes(monkeypatch) -> list[tuple[bytes, bytes]]:
    """Record ``(K_m, frame)`` of every ``decode_linkinfo`` call."""
    calls: list[tuple[bytes, bytes]] = []
    decode = messages.decode_linkinfo

    def counted(km, frame, aead_config):
        calls.append((km, frame))
        return decode(km, frame, aead_config)

    monkeypatch.setattr(messages, "decode_linkinfo", counted)
    return calls


def _stats_delta(call) -> dict[str, int]:
    before = STATS.snapshot()
    call()
    after = STATS.snapshot()
    return {name: after[name] - before[name] for name in after}


def _alone(frame: bytes, receivers) -> dict[str, int]:
    """``STATS`` growth of each receiver handling ``frame`` on its own."""
    return _stats_delta(lambda: [r._on_linkinfo(frame) for r in receivers])


def _held(agent: ProtocolAgent) -> bytes | None:
    keyring = agent.state.keyring
    return keyring.get(CID).material if keyring.has(CID) else None


def test_one_decode_serves_every_receiver_and_counts_as_their_own(monkeypatch):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _receivers(deployed, 5)
    frame = _linkinfo(deployed)
    alone = _alone(frame, _receivers(_provisioned(), 5))
    decodes = _count_decodes(monkeypatch)
    shared = _stats_delta(lambda: _receive(deployed, frame, receivers))
    assert decodes == [(_km(deployed), frame)]
    assert shared == alone and shared["opens"] == 5
    assert [_held(r) for r in receivers] == [CLUSTER_KEY] * 5
    assert trace["link.neighbor_cluster"] == 5
    # A second copy of the frame changes nothing.
    _receive(deployed, frame, receivers)
    assert trace["link.neighbor_cluster"] == 5 and len(decodes) == 2


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_receiver_with_another_km_never_reuses_the_shared_decode(monkeypatch, position):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _receivers(deployed, 3)
    other = receivers[position]
    other.state.preload.master_key = SymmetricKey(OTHER_KM, label="K_m'")
    decodes = _count_decodes(monkeypatch)
    _receive(deployed, _linkinfo(deployed), receivers)
    assert _held(other) is None
    assert [_held(r) for r in receivers if r is not other] == [CLUSTER_KEY] * 2
    assert trace["drop.linkinfo_bad_auth"] == 1
    assert trace["link.neighbor_cluster"] == 2
    assert [km for km, _ in decodes].count(OTHER_KM) == 1
    # A frame sealed under the other K_m serves only that receiver.
    frame = _linkinfo(deployed, OTHER_KM)
    for receiver in receivers:
        receiver.state.keyring.remove(CID)
    _receive(deployed, frame, receivers)
    assert [_held(r) for r in receivers] == [CLUSTER_KEY if r is other else None for r in receivers]
    assert trace["drop.linkinfo_bad_auth"] == 3


def _mixed_settings(deployed) -> list[ProtocolAgent]:
    """Receivers with the deployment's AEAD settings object and with others."""
    first, same, equal, other_cipher, last, other_tag = _receivers(deployed, 6)
    # Equal settings in another object are not the same settings object.
    equal.config = ProtocolConfig()
    other_cipher.config = ProtocolConfig(cipher="rc5-32/12/16")
    other_tag.config = ProtocolConfig(tag_len=ProtocolConfig().tag_len - 1)
    return [first, same, equal, other_cipher, last, other_tag]


def test_other_aead_settings_are_not_shared(monkeypatch):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _mixed_settings(deployed)
    first, equal = receivers[0], receivers[2]
    assert equal.config.aead == first.config.aead
    assert equal.config.aead is not first.config.aead
    frame = _linkinfo(deployed)
    alone = _alone(frame, _mixed_settings(_provisioned()))
    aead._opened.clear()
    assert _linkinfo(deployed) == frame
    decodes = _count_decodes(monkeypatch)
    shared = _stats_delta(lambda: _receive(deployed, frame, receivers))
    # ``first`` decoded and served ``same``; the equal settings, the
    # other cipher and the other tag length each decoded on their own
    # (the last two failing), and ``last`` decoded again after them.
    assert len(decodes) == 5
    assert [_held(r) for r in receivers] == [CLUSTER_KEY] * 3 + [None, CLUSTER_KEY, None]
    assert trace["drop.linkinfo_bad_auth"] == 2
    assert trace["link.neighbor_cluster"] == 4
    # The shared decode counts what the receivers' own decodes count,
    # though decodes of their own replaced it before the close.
    assert shared == alone
    assert 0 < shared["keystream_vector_blocks"] == shared["keystream_blocks"]


def test_an_erased_km_drops_per_receiver(monkeypatch):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _receivers(deployed, 4)
    for erased in receivers[::2]:
        erased.state.preload.master_key.erase()
    decodes = _count_decodes(monkeypatch)
    _receive(deployed, _linkinfo(deployed), receivers)
    assert trace["drop.linkinfo_after_setup"] == 2
    assert [_held(r) for r in receivers] == [None, CLUSTER_KEY, None, CLUSTER_KEY]
    assert len(decodes) == 1
    # After setup every receiver drops the frame and none decodes it.
    for agent in receivers:
        agent._finish_setup()
    _receive(deployed, _linkinfo(deployed), receivers)
    assert trace["drop.linkinfo_after_setup"] == 6
    assert len(decodes) == 1


def test_the_same_cluster_and_a_held_key_change_nothing():
    deployed = _provisioned()
    trace = deployed.network.trace
    member, holder, learner = _receivers(deployed, 3)
    member.state.cid = CID
    holder.state.keyring.store(CID, SymmetricKey(bytes(16), label="held"))
    _receive(deployed, _linkinfo(deployed), [member, holder, learner])
    assert _held(member) is None
    assert _held(holder) == bytes(16)
    assert _held(learner) == CLUSTER_KEY
    assert trace["link.neighbor_cluster"] == 1


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index % len(flipped)] ^= 0x01
    return bytes(flipped)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(index=st.integers(min_value=0, max_value=1 << 16))
def test_a_flipped_byte_is_refused_by_every_receiver(index):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _receivers(deployed, 4)
    frame = _linkinfo(deployed)
    memo = list(aead._opened.items())
    _receive(deployed, _flip(frame, index), receivers)
    assert trace["drop.linkinfo_bad_auth"] == 4
    assert [_held(r) for r in receivers] == [None] * 4
    assert list(aead._opened.items()) == memo


@pytest.mark.parametrize("forgery", ["other_km", "truncated", "zeroed"])
def test_a_forged_linkinfo_is_refused_by_every_receiver(forgery):
    deployed = _provisioned()
    trace = deployed.network.trace
    receivers = _receivers(deployed, 4)
    genuine = _linkinfo(deployed)
    frame = {
        "other_km": _linkinfo(deployed, OTHER_KM),
        "truncated": genuine[:7],
        "zeroed": genuine[:5] + bytes(len(genuine) - 5),
    }[forgery]
    _receive(deployed, frame, receivers)
    assert trace["drop.linkinfo_bad_auth"] == 4
    assert [_held(r) for r in receivers] == [None] * 4


# ---------------------------------------------------------------------------
# Fault injection: immediate copies share, damaged and late copies do not
# ---------------------------------------------------------------------------


def test_a_damaged_or_late_copy_decodes_alone(monkeypatch):
    fabric = FaultInjectingTransport(build_transport("loopback"), FaultPlan(seed=3))
    deployed = _provisioned(fabric)
    trace = deployed.network.trace
    neighbours = [
        deployed.agents[nid]
        for nid in deployed.network.adjacency(SENDER)
        if nid in deployed.agents
    ]
    assert len(neighbours) >= 5
    damaged, delayed, duplicated, *immediate = neighbours
    fabric.plan = FaultPlan(
        seed=3,
        per_link={
            (SENDER, damaged.state.node_id): LinkFaults(corrupt=1.0),
            (SENDER, delayed.state.node_id): LinkFaults(delay_jitter_s=0.01),
            (SENDER, duplicated.state.node_id): LinkFaults(duplicate=1.0),
        },
    )
    monkeypatch.setattr(fabric, "_corrupt", lambda frame: _flip(frame, -1))
    frame = _linkinfo(deployed)
    decodes = _count_decodes(monkeypatch)
    deployed.network.nodes[SENDER].broadcast(frame)
    deployed.run_for(0.2)
    # One decode served every immediate neighbour (the duplicated one's
    # first copy among them); the damaged copy, the delayed copy and the
    # duplicate each decoded on their own.
    assert sorted(copy == frame for _, copy in decodes) == [False, True, True, True]
    assert trace["drop.linkinfo_bad_auth"] == 1
    assert _held(damaged) is None
    assert [_held(r) for r in (delayed, duplicated, *immediate)] == [CLUSTER_KEY] * (
        len(neighbours) - 1
    )
    assert trace["link.neighbor_cluster"] == len(neighbours) - 1


# ---------------------------------------------------------------------------
# Other apps get the frame through ``on_frame``
# ---------------------------------------------------------------------------


class _Subclassed(ProtocolAgent):
    """A ``ProtocolAgent`` subclass, such as an attacker's or a baseline's."""


def test_subclasses_and_other_apps_get_on_frame(monkeypatch):
    deployed = _provisioned()
    trace = deployed.network.trace
    first, subclassed, last = _receivers(deployed, 3)
    subclassed.__class__ = _Subclassed
    heard: list[tuple[int, bytes]] = []

    class Recorder:
        def on_frame(self, sender_id: int, frame: bytes) -> None:
            heard.append((sender_id, frame))

    on_frame = ProtocolAgent.on_frame

    def recorded(agent, sender_id, frame):
        heard.append((sender_id, frame))
        on_frame(agent, sender_id, frame)

    monkeypatch.setattr(_Subclassed, "on_frame", recorded)
    frame = _linkinfo(deployed)
    decodes = _count_decodes(monkeypatch)
    _receive(deployed, frame, [first, Recorder(), subclassed, deployed.bs_agent, last])
    assert heard == [(SENDER, frame), (SENDER, frame)]
    # The subclass decoded on its own, through its own dispatch.
    assert len(decodes) == 2
    assert [_held(r) for r in (first, subclassed, last)] == [CLUSTER_KEY] * 3
    assert trace["link.neighbor_cluster"] == 3


# ---------------------------------------------------------------------------
# Deployments behave identically without the shared reception passes
# ---------------------------------------------------------------------------


def _soak(shared: bool, fault_plan: FaultPlan | None = None) -> tuple:
    """Keyrings, frames, events, trace counters and STATS growth of a seeded setup and soak."""
    before = STATS.snapshot()
    with pytest.MonkeyPatch.context() as patches:
        if not shared:
            provision = setup.provision

            def provision_unshared(network, config=None):
                deployed = provision(network, config)
                # Every receiver then takes each frame alone, through on_frame.
                network.radio.receptions.clear()
                return deployed

            patches.setattr(setup, "provision", provision_unshared)
        config = ProtocolConfig(
            hop_ack_enabled=fault_plan is not None,
            setup_reannounce_count=2 if fault_plan is not None else 0,
            setup_reannounce_interval_s=0.3,
        )
        deployed, _metrics = deploy_live(
            n=100, density=10.0, seed=6, config=config, fault_plan=fault_plan
        )
    assert (messages.LINKINFO in deployed.network.radio.receptions) == shared
    setup_stats = STATS.snapshot()
    deployed.assign_gradient()
    transport = deployed.network.transport
    loopback = getattr(transport, "inner", transport)
    workload = SoakWorkload(deployed, offered_load_fps=150.0, duration_s=1.0, seed=6)
    workload.start()
    deployed.run_for(2.0)
    after = STATS.snapshot()
    return (
        [(r.time, r.source, r.data) for r in deployed.bs_agent.delivered],
        {
            nid: (agent.state.role, agent.state.cid, list(agent.state.keyring._keys))
            for nid, agent in deployed.agents.items()
        },
        [node.frames_received for _, node in sorted(deployed.network.nodes.items())],
        deployed.network.trace["net.frames_sent"],
        loopback.events_executed,
        dict(deployed.network.trace.counters),
        {name: setup_stats[name] - before[name] for name in after},
        {name: after[name] - before[name] for name in after},
    )


@pytest.mark.parametrize(
    "fault_plan",
    [None, FaultPlan(seed=6, defaults=LinkFaults(drop=0.1, duplicate=0.05, corrupt=0.05))],
    ids=["clean", "lossy"],
)
def test_a_deployment_is_identical_without_the_shared_passes(monkeypatch, fault_plan):
    decodes = _count_decodes(monkeypatch)
    shared = _soak(shared=True, fault_plan=fault_plan)
    shared_decodes = len(decodes)
    counters = shared[5]
    assert shared[0]
    if fault_plan is None:
        # Each fan-out decoded its LINKINFO once, not once per receiver.
        assert 0 < shared_decodes <= counters["tx.linkinfo"]
    else:
        assert counters["fault.corrupt"] > 0 and counters["drop.linkinfo_bad_auth"] > 0
    aead._opened.clear()
    unshared = _soak(shared=False, fault_plan=fault_plan)
    assert len(decodes) - shared_decodes > 3 * shared_decodes
    assert unshared == shared
