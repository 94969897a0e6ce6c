"""The routing gradient runs only over links that can carry a frame.

``DeployedProtocol.assign_gradient`` counts the link ``u -> v`` iff ``v``
is alive and holds ``u``'s cluster key, or ``v`` is the base station and
``u``'s cluster is not revoked. ``Network.hop_gradient`` stays radio-only.
Each routable node's parent is the node through which the search first
reached it: one parent per node, so the parents partition the routable
nodes by construction.
"""

from __future__ import annotations

from repro.crypto.keys import SymmetricKey
from repro.protocol.setup import DeployedProtocol, deploy
from repro.runtime.faults import FaultPlan, LinkFaults
from repro.runtime.lifecycle import ChurnScenario, run_churn
from repro.sim.network import BS_ID
from tests.conftest import small_deployment


def _hops(deployed) -> dict[int, int]:
    return {nid: deployed.gradient.level(nid) for nid in deployed.agents}


def _cid(deployed, nid: int) -> int:
    cid = deployed.agent(nid).state.cid
    assert cid is not None
    return cid


def _holds(deployed, v: int, cid: int) -> bool:
    agent = deployed.agents.get(v)
    return agent is not None and agent.state.keyring.has(cid)


def _usable(deployed, u: int, v: int) -> bool:
    """Whether ``u``'s frames can be opened at ``v`` (the gradient's rule)."""
    cid = _cid(deployed, u)
    if v == BS_ID:
        return cid not in deployed.bs_agent.revoked_cids
    return deployed.network.nodes[v].alive and _holds(deployed, v, cid)


def _assert_keyed_gradient(deployed) -> None:
    """Every routable node has a usable link one hop down, and none shorter."""
    hops = _hops(deployed)
    hops[BS_ID] = 0
    network = deployed.network
    for nid, agent in deployed.agents.items():
        h = hops[nid]
        st = agent.state
        if h < 0:
            continue
        assert network.nodes[nid].alive and st.cid is not None and st.keyring.has(st.cid)
        down = [v for v in network.adjacency(nid) if _usable(deployed, nid, v)]
        assert any(hops.get(v, -1) == h - 1 for v in down), nid
        assert all(hops.get(v, -1) < 0 or hops[v] >= h - 1 for v in down), nid


def assert_parents(deployed) -> None:
    """Every node's parent in the gradient table, against the links.

    A level-1 node neighbours the BS, which is its parent, and its
    cluster is not revoked. A deeper routable node's parent is an alive
    radio neighbour one level closer that holds the node's cluster key.
    An unroutable node, or an id with no agent, has no parent.
    """
    gradient = deployed.gradient
    network = deployed.network
    assert (gradient.level(BS_ID), gradient.parent(BS_ID)) == (0, -1)
    for nid in range(BS_ID + 1, len(gradient.levels)):
        level, parent = gradient.level(nid), gradient.parent(nid)
        agent = deployed.agents.get(nid)
        if level < 0 or agent is None:
            assert (level, parent) == (-1, -1), nid
            continue
        cid = agent.state.cid
        assert network.nodes[nid].alive and agent.state.keyring.has(cid), nid
        if level == 1:
            assert parent == BS_ID and nid in network.adjacency(BS_ID), nid
            assert cid not in deployed.bs_agent.revoked_cids, nid
        else:
            assert parent in network.adjacency(nid), nid
            assert network.nodes[parent].alive, nid
            assert gradient.level(parent) == level - 1, nid
            assert deployed.agents[parent].state.keyring.has(cid), nid


def _lossy_deployment():
    """Setup under 30% frame loss: lost LINKINFOs leave radio links keyless."""
    plan = FaultPlan(seed=3, defaults=LinkFaults(drop=0.3))
    deployed, _ = deploy(150, 10.0, seed=3, fault_plan=plan)
    return deployed


def test_clean_setup_gradient_equals_radio_gradient():
    # Lossless LINKINFO gives every radio neighbour every neighbour's key.
    deployed = small_deployment()
    radio = deployed.network.hop_gradient()
    assert _hops(deployed) == {nid: radio[nid] for nid in deployed.agents}


def test_every_hop_has_a_keyed_downhill_neighbour():
    deployed = _lossy_deployment()
    _assert_keyed_gradient(deployed)
    radio = deployed.network.hop_gradient()
    # The lossy setup really left keyless links the radio BFS routes over.
    assert any(h != radio[nid] for nid, h in _hops(deployed).items())


def test_radio_gradient_stays_radio_only():
    # The key graph is a subgraph of the radio graph: never a shorter route.
    deployed = _lossy_deployment()
    radio = deployed.network.hop_gradient()
    assert all(1 <= radio[nid] <= h for nid, h in _hops(deployed).items() if h > 0)


def test_node_without_own_cluster_key_is_unroutable():
    deployed = small_deployment()
    nid = next(n for n, h in _hops(deployed).items() if h == 2)
    st = deployed.agent(nid).state
    st.keyring.remove(st.cid)
    deployed.assign_gradient()
    assert deployed.gradient.level(nid) == -1
    _assert_keyed_gradient(deployed)


def test_keyless_only_downhill_neighbour_gives_another_route_or_none():
    deployed = small_deployment()
    network = deployed.network
    hops = _hops(deployed)
    outcomes = set()
    for nid, h in sorted(hops.items()):
        down = [v for v in network.adjacency(nid) if hops.get(v, -1) == h - 1]
        if h < 2 or len(down) != 1 or _cid(deployed, nid) == _cid(deployed, down[0]):
            continue
        # The one downhill radio neighbour forgets the node's cluster key.
        cid = _cid(deployed, nid)
        keyring = deployed.agent(down[0]).state.keyring
        kept = SymmetricKey(bytes(keyring.get(cid).material), label="kept")
        keyring.remove(cid)
        deployed.assign_gradient()
        new = deployed.gradient.level(nid)
        assert new == -1 or new > h
        _assert_keyed_gradient(deployed)
        outcomes.add("unroutable" if new == -1 else "rerouted")
        keyring.store(cid, kept)
        deployed.assign_gradient()
        assert _hops(deployed) == hops
    assert "rerouted" in outcomes


def test_keyless_neighbourhood_is_unroutable():
    deployed = small_deployment()
    network = deployed.network
    nid = next(n for n, h in sorted(_hops(deployed).items()) if h >= 2)
    cid = _cid(deployed, nid)
    for v in network.adjacency(nid):
        if v != nid and v in deployed.agents:
            deployed.agent(v).state.keyring.remove(cid)
    deployed.assign_gradient()
    assert deployed.gradient.level(nid) == -1
    assert network.hop_gradient()[nid] >= 2
    _assert_keyed_gradient(deployed)


def test_revoked_cluster_loses_its_base_station_link():
    deployed = small_deployment()
    one_hop = [n for n, h in sorted(_hops(deployed).items()) if h == 1]
    cid = _cid(deployed, one_hop[0])
    # The BS's revocation list alone; no REVOKE flood has reached anyone.
    deployed.bs_agent.revoked_cids.add(cid)
    deployed.assign_gradient()
    for nid in one_hop:
        h = deployed.gradient.level(nid)
        if _cid(deployed, nid) == cid:
            assert h != 1
        else:
            assert h == 1
    _assert_keyed_gradient(deployed)


def test_dead_node_is_no_relay():
    deployed = small_deployment()
    hops = _hops(deployed)
    relay = next(n for n, h in sorted(hops.items()) if h == 1)
    deployed.network.nodes[relay].die()
    deployed.assign_gradient()
    assert deployed.gradient.level(relay) == -1
    _assert_keyed_gradient(deployed)


def test_parents_hold_after_every_recompute_under_churn_and_motion(monkeypatch):
    # Waypoint motion recomputes the gradient at every step that changes
    # a link, and every join, leave and revocation recomputes it too.
    assign = DeployedProtocol.assign_gradient
    depths: list[int] = []

    def checked(deployed) -> None:
        assign(deployed)
        assert_parents(deployed)
        depths.append(max(deployed.gradient.levels))

    monkeypatch.setattr(DeployedProtocol, "assign_gradient", checked)
    result = run_churn(ChurnScenario(seed=0, duration_s=30.0, settle_s=5.0))
    assert result.joins_completed and result.leaves and result.clusters_revoked
    assert len(depths) > result.joins_completed + result.leaves + result.clusters_revoked + 20
    assert max(depths) >= 3
