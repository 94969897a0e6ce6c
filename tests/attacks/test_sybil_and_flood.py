"""Sybil and HELLO-flood attacks."""

import numpy as np

from repro.attacks import Adversary, HelloFloodAttacker, SybilAttacker
from repro.protocol.setup import provision
from repro.sim.network import Network
from tests.conftest import run_for, small_deployment


class TestSybil:
    def test_outsider_sybil_rejected(self):
        deployed = small_deployment(seed=120)
        rng = np.random.default_rng(0)
        pos = deployed.network.deployment.positions[10]
        attacker = SybilAttacker(deployed, pos)
        cid = deployed.agents[11].state.cid
        before = len(deployed.bs_agent.delivered)
        attacker.emit_many(15, cid=cid, rng=rng)
        run_for(deployed, 20)
        assert len(deployed.bs_agent.delivered) == before
        # Hop layers under a random key fail authentication at holders.
        assert deployed.network.trace["drop.data_bad_auth"] > 0

    def test_insider_sybil_rejected_at_bs(self):
        # Even with a genuine stolen cluster key, fabricated identities
        # have no K_i: the BS rejects every one.
        deployed = small_deployment(seed=121)
        rng = np.random.default_rng(1)
        adv = Adversary(deployed)
        victim = next(
            nid for nid in deployed.agents if 0 < deployed.gradient.level(nid) < 4
        )
        cap = adv.capture(victim)
        attacker = SybilAttacker(
            deployed,
            deployed.network.deployment.positions[victim - 1],
            stolen_cluster_keys=cap.cluster_keys,
        )
        before = len(deployed.bs_agent.delivered)
        attacker.emit_many(15, cid=cap.own_cid, rng=rng)
        run_for(deployed, 20)
        assert len(deployed.bs_agent.delivered) == before
        assert len(attacker.identities_used) == 15


class TestHelloFlood:
    def test_forged_flood_during_setup_is_dropped(self):
        net = Network.build(100, 10.0, seed=122)
        deployed = provision(net)
        attacker = HelloFloodAttacker(deployed, net.deployment.positions[0])
        attacker.wire_to_victims(net.sensor_ids())
        for agent in deployed.agents.values():
            agent.start_setup()
        rng = np.random.default_rng(2)
        net.transport.schedule(0.01, lambda: attacker.flood_forged(40, rng))
        net.transport.run(until=deployed.config.setup_end_s)
        assert net.trace["drop.hello_bad_auth"] > 0
        assert all(a.state.cid != attacker.node.id for a in deployed.agents.values())
        # The flood cannot prevent legitimate clustering either.
        assert all(a.state.decided for a in deployed.agents.values())

    def test_hello_after_setup_ignored(self):
        deployed = small_deployment(seed=123)
        attacker = HelloFloodAttacker(
            deployed, deployed.network.deployment.positions[0]
        )
        attacker.wire_to_victims(sorted(deployed.agents)[:20])
        rng = np.random.default_rng(3)
        attacker.flood_forged(10, rng)
        run_for(deployed, 10)
        assert deployed.network.trace["drop.hello_after_setup"] > 0

    def test_replayed_hello_cannot_regrow_clusters_after_setup(self):
        net = Network.build(100, 10.0, seed=124)
        deployed = provision(net)
        attacker = HelloFloodAttacker(deployed, net.deployment.positions[0])
        attacker.wire_to_victims(net.sensor_ids())
        attacker.start_monitoring()
        for agent in deployed.agents.values():
            agent.start_setup()
        net.transport.run(until=deployed.config.setup_end_s)
        assert attacker.recorded_hellos
        cids_before = {nid: a.state.cid for nid, a in deployed.agents.items()}
        attacker.replay_recorded()
        net.transport.run(until=net.transport.now + 10)
        assert {nid: a.state.cid for nid, a in deployed.agents.items()} == cids_before

    def test_forged_refresh_cannot_extend_reach(self):
        # With a stolen key the attacker can rotate clusters she owns, but
        # cannot touch clusters whose key she lacks.
        deployed = small_deployment(seed=125)
        adv = Adversary(deployed)
        victim = sorted(deployed.agents)[3]
        cap = adv.capture(victim)
        attacker = HelloFloodAttacker(
            deployed, deployed.network.deployment.positions[victim - 1]
        )
        rng = np.random.default_rng(4)
        # Target a cluster some neighbor of the victim holds, but whose key
        # the victim did NOT have — the attacker must forge blind.
        neighbor_ids = [
            nid for nid in deployed.network.adjacency(victim) if nid in deployed.agents
        ]
        unheld_cid = next(
            cid
            for nid in neighbor_ids
            for cid in deployed.agents[nid].state.keyring.cluster_ids()
            if cid not in cap.cluster_keys
        )
        stolen_cid = cap.own_cid
        trace = deployed.network.trace
        # Forge refresh for the unheld cluster with the WRONG key: holders
        # of that cluster's real key reject the seal.
        attacker.forge_refresh(unheld_cid, cap.cluster_keys[stolen_cid], 1, rng)
        run_for(deployed, 10)
        assert trace["drop.refresh_bad_auth"] > 0
        assert trace["refresh.applied"] == 0
