"""Key refresh, both strategies (Sec. IV-C / VI)."""

from repro.protocol.config import ProtocolConfig
from repro.protocol.refresh import RefreshCoordinator
from tests.conftest import run_for, small_deployment


def keyring_snapshot(deployed):
    return {
        nid: {cid: a.state.keyring.get(cid).material
              for cid in a.state.keyring.cluster_ids()}
        for nid, a in deployed.agents.items()
    }


class TestHashRefresh:
    def test_all_keys_change_consistently(self):
        deployed = small_deployment(seed=40)
        before = keyring_snapshot(deployed)
        RefreshCoordinator(deployed).run_round()
        after = keyring_snapshot(deployed)
        for nid in before:
            assert set(before[nid]) == set(after[nid])  # membership unchanged
            for cid in before[nid]:
                assert before[nid][cid] != after[nid][cid]
        # All holders of one cluster key still agree on its value.
        by_cid = {}
        for nid, keys in after.items():
            for cid, key in keys.items():
                by_cid.setdefault(cid, set()).add(key)
        assert all(len(vals) == 1 for vals in by_cid.values())

    def test_data_flows_after_refresh(self):
        deployed = small_deployment(seed=41)
        coord = RefreshCoordinator(deployed)
        coord.run_round()
        coord.run_round()
        src = deployed.gradient.routable()[0]
        deployed.agents[src].send_reading(b"post-rehash")
        run_for(deployed, 30)
        assert any(r.data == b"post-rehash" for r in deployed.bs_agent.delivered)

    def test_old_keys_erased(self):
        deployed = small_deployment(seed=42)
        agent = next(iter(deployed.agents.values()))
        old_keys = [agent.state.keyring.get(cid)
                    for cid in agent.state.keyring.cluster_ids()]
        RefreshCoordinator(deployed).run_round()
        assert all(k.erased for k in old_keys)

    def test_requires_zero_messages(self):
        deployed = small_deployment(seed=43)
        sent_before = deployed.network.trace["net.frames_sent"]
        RefreshCoordinator(deployed).run_round()
        assert deployed.network.trace["net.frames_sent"] == sent_before

    def test_epoch_counts(self):
        deployed = small_deployment(seed=44)
        coord = RefreshCoordinator(deployed)
        assert coord.run_round() == 1
        assert coord.run_round() == 2
        assert all(a.state.refresh_epoch == 2 for a in deployed.agents.values())


class TestReclusterRefresh:
    def _deployed(self, seed=45):
        return small_deployment(
            seed=seed, config=ProtocolConfig(refresh_strategy="recluster")
        )

    def test_membership_is_preserved(self):
        # The paper's defense: refresh "within the same clusters", no new
        # clusters may form.
        deployed = self._deployed()
        cids_before = {nid: a.state.cid for nid, a in deployed.agents.items()}
        RefreshCoordinator(deployed).run_round(settle_s=5.0)
        assert {nid: a.state.cid for nid, a in deployed.agents.items()} == cids_before

    def test_own_cluster_keys_change(self):
        deployed = self._deployed(seed=46)
        before = keyring_snapshot(deployed)
        RefreshCoordinator(deployed).run_round(settle_s=5.0)
        after = keyring_snapshot(deployed)
        for nid, agent in deployed.agents.items():
            cid = agent.state.cid
            assert after[nid][cid] != before[nid][cid], nid

    def test_holders_stay_consistent(self):
        deployed = self._deployed(seed=47)
        RefreshCoordinator(deployed).run_round(settle_s=5.0)
        by_cid = {}
        for nid, keys in keyring_snapshot(deployed).items():
            for cid, key in keys.items():
                by_cid.setdefault(cid, set()).add(key)
        assert all(len(vals) == 1 for vals in by_cid.values())

    def test_data_flows_after_recluster_refresh(self):
        deployed = self._deployed(seed=48)
        RefreshCoordinator(deployed).run_round(settle_s=5.0)
        src = deployed.gradient.routable()[0]
        deployed.agents[src].send_reading(b"post-recluster")
        run_for(deployed, 30)
        assert any(r.data == b"post-recluster" for r in deployed.bs_agent.delivered)

    def test_replayed_refresh_rejected(self):
        deployed = self._deployed(seed=49)
        trace = deployed.network.trace
        coord = RefreshCoordinator(deployed)
        coord.run_round(settle_s=5.0)
        applied_before = trace["refresh.applied"]
        # Replay epoch-1 refresh messages: epoch check must reject them.
        coord.epoch = 0  # rewind the coordinator and re-send epoch 1
        coord.refresh_once()
        run_for(deployed, 5.0)
        assert trace["drop.refresh_replay"] > 0
        # Wait: re-sending epoch 1 under *new* keys creates fresh messages;
        # only genuinely replayed (same-epoch) ones are rejected.
        assert trace["refresh.applied"] >= applied_before


def test_periodic_scheduling():
    deployed = small_deployment(seed=50)
    coord = RefreshCoordinator(deployed)
    coord.schedule_periodic(period_s=10.0, rounds=3)
    run_for(deployed, 35.0)
    assert coord.epoch == 3
