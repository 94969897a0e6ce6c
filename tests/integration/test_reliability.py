"""Hop-by-hop reliability: custody ACKs, retransmission, re-announcement.

The reliability layer is strictly opt-in — the default configuration
must put zero extra frames on the air (the parity tests elsewhere pin
byte-identical behavior; here we pin the absence of ACK/retransmit
traffic). With ``hop_ack_enabled`` on, every forwarded DATA frame is
tracked until a custody ACK addressed to this sender arrives or a
downhill node's forward of it is overheard, and is retransmitted under
capped exponential backoff until then or until ``MAX_RETRANSMITS`` is
exhausted (``forward.giveup``).
"""

from repro.protocol import agent
from repro.protocol.config import ProtocolConfig
from repro.runtime import deploy_live
from repro.runtime.chaos import ChaosScenario, run_chaos
from repro.runtime.faults import FaultPlan, LinkFaults

SCENARIO = dict(n=30, rounds=2, settle_s=8.0)


def counters(deployed) -> dict[str, int]:
    return dict(deployed.network.trace.counters)


class TestDefaultsOff:
    def test_no_ack_or_retx_traffic_by_default(self):
        result = run_chaos(ChaosScenario(seed=0, retransmits=False, **SCENARIO))
        assert result.counter("tx.ack") == 0
        assert result.counter("net.retx.sent") == 0
        assert result.counter("net.retx.overheard") == 0
        assert result.counter("tx.hello_reannounce") == 0
        assert result.counter("tx.linkinfo_reannounce") == 0

    def test_config_defaults(self):
        config = ProtocolConfig()
        assert not config.hop_ack_enabled
        assert config.setup_reannounce_count == 0


class TestRecovery:
    def test_retransmits_recover_delivery_under_loss(self):
        for seed in (0, 1, 2):
            on = run_chaos(ChaosScenario(seed=seed, **SCENARIO))
            off = run_chaos(ChaosScenario(seed=seed, retransmits=False, **SCENARIO))
            assert on.delivery_ratio >= 0.99
            assert off.delivery_ratio < on.delivery_ratio
            assert on.counter("net.retx.sent") > 0
            assert on.counter("net.retx.acked") > 0
            assert on.counter("net.retx.overheard") > 0

    def test_clean_network_sends_no_retransmits(self):
        # With ACKs on but no faults, every first transmission is
        # acknowledged before its timer fires: no spurious retries.
        result = run_chaos(
            ChaosScenario(
                seed=0, drop=0.0, duplicate=0.0, reorder=0.0, **SCENARIO
            )
        )
        assert result.delivery_ratio == 1.0
        assert result.counter("net.retx.sent") == 0
        assert result.counter("forward.giveup") == 0
        assert result.counter("tx.ack") > 0

    def test_giveup_after_max_retransmits(self, monkeypatch):
        # Sever every path outright: each tracked frame must burn its
        # retry budget and give up, not retry forever.
        monkeypatch.setattr(agent, "MAX_RETRANSMITS", 2)
        config = ProtocolConfig(hop_ack_enabled=True)
        deployed, _ = deploy_live(
            20, 8.0, seed=1, transport="loopback", config=config,
            fault_plan=FaultPlan(),  # no-op during setup
        )
        deployed.assign_gradient()
        # Install total loss only now, so setup itself was clean.
        deployed.network.transport.plan = FaultPlan(defaults=LinkFaults(drop=1.0))
        sources = [
            nid
            for nid in deployed.network.sensor_ids()
            if deployed.gradient.level(nid) > 0
        ]
        for nid in sources[:5]:
            deployed.agents[nid].send_reading(b"doomed")
        deployed.run_for(30.0)
        got = counters(deployed)
        assert got["forward.giveup"] >= 1
        assert got["net.retx.sent"] <= 2 * (got["forward.giveup"] + 5)


class TestSetupReannouncement:
    def test_reannouncements_are_counted_and_bounded(self):
        config = ProtocolConfig(
            hop_ack_enabled=True,
            setup_reannounce_count=2,
            settle_margin_s=3.0,
        )
        deployed, metrics = deploy_live(
            30, 9.0, seed=7, transport="loopback", config=config
        )
        got = counters(deployed)
        # At most reannounce_count re-broadcasts per HELLO; nodes whose
        # setup finished early (master key erased) hold back theirs.
        assert 0 < got["tx.hello_reannounce"] <= 2 * got["tx.hello"]
        assert got["tx.linkinfo_reannounce"] > 0
        assert metrics.cluster_count > 0

    def test_reannouncement_repairs_lossy_setup(self):
        # Under heavy setup loss, re-announcing HELLO/LINKINFO recovers
        # links that a single broadcast would have lost for good.
        plan = FaultPlan(seed=0, defaults=LinkFaults(drop=0.3))
        bare_cfg = ProtocolConfig()
        rean_cfg = ProtocolConfig(
            setup_reannounce_count=3, settle_margin_s=4.0
        )
        bare, _ = deploy_live(
            40, 9.0, seed=7, transport="loopback", config=bare_cfg, fault_plan=plan
        )
        repaired, _ = deploy_live(
            40, 9.0, seed=7, transport="loopback", config=rean_cfg, fault_plan=plan
        )
        def total_keys(deployed):
            return sum(
                a.state.stored_key_count() for a in deployed.agents.values()
            )
        assert total_keys(repaired) > total_keys(bare)
