"""Runtime twin of ldplint's KEY002: keys erased when the paper says so.

The static rule proves every key-holding class *has* a reachable
``erase()`` call; this suite proves the calls actually fire at the
protocol moments Sec. IV mandates — ``K_m`` on every node once setup
ends (Sec. IV-B), ``K_MC`` on a new node once its join window closes
(Sec. IV-E) — across every role a node can end up in, including nodes
added after the initial rollout.
"""

import numpy as np

from repro.protocol.addition import deploy_new_node, finalize_join
from repro.protocol.config import JOIN_RESPONSE_JITTER_S, JOIN_WINDOW_S

from tests.conftest import run_for, small_deployment


def join_at(deployed, position):
    joiner = deploy_new_node(deployed, position)
    run_for(deployed, JOIN_WINDOW_S + JOIN_RESPONSE_JITTER_S + 0.5)
    return joiner


def test_master_key_erased_on_every_agent_after_setup():
    deployed = small_deployment(seed=60)
    # Heads demote to MEMBER once setup ends; a former head is the node
    # whose cluster id is its own id.
    heads = {nid for nid, a in deployed.agents.items() if a.state.cid == nid}
    assert heads and len(heads) < len(deployed.agents), "need both roles for coverage"
    for node_id, agent in deployed.agents.items():
        role = "head" if node_id in heads else "member"
        assert agent.state.preload.master_key.erased, (
            f"node {node_id} ({role}) still holds K_m after setup"
        )


def test_lifetime_keys_survive_setup():
    # The counterpart assertion: erasure is targeted, not indiscriminate.
    # K_i stays (shared with the BS for the node's life, Sec. IV-A) and
    # heads keep their live cluster key.
    deployed = small_deployment(seed=60)
    for node_id, agent in deployed.agents.items():
        st = agent.state
        assert not st.preload.node_key.erased
        if st.cid == node_id:  # former head: its candidate key went live
            assert not st.preload.cluster_key.erased


def test_added_node_erases_both_kmc_and_master_key():
    deployed = small_deployment(seed=61)
    anchor = sorted(deployed.agents)[10]
    joiner = join_at(deployed, deployed.network.node(anchor).position + 0.5)
    agent = finalize_join(deployed, joiner)
    assert joiner.preload.kmc is not None and joiner.preload.kmc.erased
    assert agent.state.preload.master_key.erased
    # ... and the whole fleet still satisfies the invariant afterwards.
    for a in deployed.agents.values():
        assert a.state.preload.master_key.erased


def test_failed_join_still_erases_kmc():
    # K_MC must die with the join window even when no cluster answered —
    # an attacker capturing a stranded node must not learn K_MC.
    deployed = small_deployment(seed=62)
    joiner = join_at(deployed, np.array([1e6, 1e6]))
    assert joiner.result is None
    assert joiner.preload.kmc is not None and joiner.preload.kmc.erased
