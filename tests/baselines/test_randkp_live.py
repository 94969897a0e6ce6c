"""The live Eschenauer–Gligor implementation (repro.randkp)."""

import math

import pytest

from repro.baselines import link_fraction
from repro.randkp import expected_share_probability, run_randkp_bootstrap


@pytest.fixture(scope="module")
def eg():
    return run_randkp_bootstrap(180, 12.0, seed=1, pool_size=1000, ring_size=25)


def test_bootstrap_completes(eg):
    assert all(a.bootstrapped for a in eg.agents.values())


def _direct_fraction(dep):
    return link_fraction(dep.deployment, dep.shared_key_link)


def test_shared_key_fraction_matches_theory(eg):
    theory = expected_share_probability(1000, 25)
    assert math.isclose(_direct_fraction(eg), theory, abs_tol=0.06)


def test_path_keys_raise_connectivity(eg):
    assert eg.secured_link_fraction() > _direct_fraction(eg) + 0.1


def test_link_keys_agree_between_ends(eg):
    assert eg.link_keys_consistent()


def test_link_keys_differ_across_links(eg):
    # No two secured links of one node share a key (per-pair derivation).
    for agent in eg.agents.values():
        keys = [k for k, _ in agent.link_keys.values()]
        assert len(keys) == len(set(keys))


def test_storage_is_ring_plus_links(eg):
    for agent in eg.agents.values():
        assert agent.keys_stored() == 25 + len(agent.link_keys)


def test_relay_knows_the_path_keys_it_made(eg):
    relays = [a for a in eg.agents.values() if a.relay_knowledge]
    assert relays  # path keys were established through someone
    relay = relays[0]
    (u, v), key = next(iter(relay.relay_knowledge.items()))
    # The relay's copy matches what the endpoints installed.
    end = eg.agents[u].link_keys.get(v)
    if end is not None:
        assert end[0] == key and end[1] == "path"


def test_capture_exposes_remote_links(eg):
    captured = sorted(eg.agents)[:8]
    fraction = eg.resilience(captured)
    assert 0.0 < fraction < 0.6  # global, non-local exposure


def test_capture_of_relay_exposes_its_path_links(eg):
    relay_id = next(nid for nid, a in eg.agents.items() if a.relay_knowledge)
    loot = eg.capture(relay_id)
    assert loot["relay_knowledge"]
    # Resilience counting includes those path links.
    assert eg.resilience([relay_id]) > 0.0


def test_messages_roundtrip():
    from repro.crypto.aead import AeadConfig
    from repro.randkp import messages as m

    frame = m.encode_ring_announce(7, (1, 2, 3))
    assert m.decode_ring_announce(frame) == (7, (1, 2, 3))

    aead = AeadConfig()
    key = bytes(range(16))
    req = m.encode_path_key_req(key, 1, 2, 3, 5, aead)
    assert m.path_key_req_header(req) == (1, 2, 5)
    assert m.decode_path_key_req(key, req, aead) == 3

    grant = m.encode_path_key_grant(key, 2, 1, 3, 6, bytes(16), aead)
    assert m.path_key_grant_header(grant) == (2, 1, 6)
    assert m.decode_path_key_grant(key, grant, aead) == (3, bytes(16))


def test_malformed_frames_rejected():
    from repro.randkp import messages as m

    with pytest.raises(m.MalformedRandKpMessage):
        m.decode_ring_announce(bytes([m.RING_ANNOUNCE, 0]))
    with pytest.raises(m.MalformedRandKpMessage):
        m.path_key_req_header(bytes([m.PATH_KEY_REQ]))


def test_agents_survive_garbage(eg):
    agent = next(iter(eg.agents.values()))
    agent.on_frame(0, b"")
    agent.on_frame(0, bytes([80]))
    agent.on_frame(0, bytes([81]) + bytes(40))
    agent.on_frame(0, bytes([82]) + bytes(40))
    agent.on_frame(0, bytes(64))


class TestQComposite:
    def test_q2_reduces_direct_connectivity(self):
        eg = run_randkp_bootstrap(120, 10.0, seed=2, pool_size=500, ring_size=25, q=1)
        qc = run_randkp_bootstrap(120, 10.0, seed=2, pool_size=500, ring_size=25, q=2)
        assert _direct_fraction(qc) < _direct_fraction(eg)
        assert qc.link_keys_consistent()

    def test_q2_keys_differ_from_q1(self):
        eg = run_randkp_bootstrap(80, 10.0, seed=3, pool_size=300, ring_size=30, q=1)
        qc = run_randkp_bootstrap(80, 10.0, seed=3, pool_size=300, ring_size=30, q=2)
        # For pairs secured in both runs, the q-composite key (hash of all
        # shared keys) differs from the basic key (smallest shared key).
        diffs = 0
        for nid, agent in qc.agents.items():
            for other, (key, how) in agent.link_keys.items():
                if how != "shared":
                    continue
                base = eg.agents[nid].link_keys.get(other)
                if base is not None and base[1] == "shared":
                    assert key != base[0]
                    diffs += 1
        assert diffs > 0

    def test_q2_improves_small_capture_resilience(self):
        eg = run_randkp_bootstrap(150, 12.0, seed=4, pool_size=500, ring_size=40, q=1)
        qc = run_randkp_bootstrap(150, 12.0, seed=4, pool_size=500, ring_size=40, q=3)
        captured = sorted(eg.agents)[:3]
        assert qc.resilience(captured) <= eg.resilience(captured)

    def test_q_validation(self):
        import pytest
        from repro.crypto.aead import AeadConfig

        with pytest.raises(ValueError):
            run_randkp_bootstrap(10, 5.0, q=0)
