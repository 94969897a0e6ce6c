"""The fault-injection layer: plans, the transport decorator, parity.

The central contract is *transparency when idle*: wrapping any transport
in a ``FaultInjectingTransport`` with an all-zero-rate ``FaultPlan`` must
be indistinguishable from not wrapping it — byte-identical frames, same
clusters, same trace counters. Everything the wrapper does beyond that
(drop, duplicate, reorder, corrupt, delay, crash, partition) must be
seeded-deterministic and visible under ``fault.*`` counters.
"""

import pytest

from repro.protocol.metrics import validate_clusters
from repro.runtime import deploy_live
from repro.runtime.faults import (
    CrashEvent,
    FaultPlan,
    LinkFaults,
    Partition,
)

N, DENSITY, SEED = 80, 10.0, 7


def counters(deployed) -> dict[str, int]:
    return dict(deployed.network.trace.counters)


class TestZeroRatePassthrough:
    def test_loopback_byte_identical(self):
        bare, bare_metrics = deploy_live(N, DENSITY, seed=SEED, transport="loopback")
        wrapped, wrapped_metrics = deploy_live(
            N, DENSITY, seed=SEED, transport="loopback", fault_plan=FaultPlan()
        )
        assert wrapped_metrics.clusters == bare_metrics.clusters
        assert counters(wrapped) == counters(bare)
        assert not any(k.startswith("fault.") for k in counters(wrapped))

    def test_udp_forms_valid_clusters_without_injecting(self):
        # UDP is racy run-to-run, so the parity claim is weaker: a no-op
        # plan must not inject anything or perturb a valid clustering.
        deployed, metrics = deploy_live(
            25, 8.0, seed=3, transport="udp", fault_plan=FaultPlan()
        )
        assert metrics.cluster_count > 0
        assert validate_clusters(deployed) == []
        assert not any(k.startswith("fault.") for k in counters(deployed))

    def test_noop_detection(self):
        assert FaultPlan().is_noop
        assert not FaultPlan(defaults=LinkFaults(drop=0.1)).is_noop
        assert not FaultPlan(crashes=(CrashEvent(1, 5.0),)).is_noop
        assert not FaultPlan(
            partitions=(Partition(frozenset({1}), 0.0, 1.0),)
        ).is_noop


class TestInjection:
    def test_lossy_plan_injects_and_is_deterministic(self):
        plan = FaultPlan(
            seed=5, defaults=LinkFaults(drop=0.1, duplicate=0.05, reorder=0.05)
        )
        a, _ = deploy_live(40, 9.0, seed=SEED, transport="loopback", fault_plan=plan)
        b, _ = deploy_live(40, 9.0, seed=SEED, transport="loopback", fault_plan=plan)
        assert counters(a)["fault.drop"] > 0
        assert counters(a)["fault.duplicate"] > 0
        assert counters(a)["fault.reorder"] > 0
        assert counters(a) == counters(b)

    def test_fault_seed_changes_outcomes(self):
        faults = LinkFaults(drop=0.1)
        a, _ = deploy_live(
            40, 9.0, seed=SEED, transport="loopback",
            fault_plan=FaultPlan(seed=1, defaults=faults),
        )
        b, _ = deploy_live(
            40, 9.0, seed=SEED, transport="loopback",
            fault_plan=FaultPlan(seed=2, defaults=faults),
        )
        assert counters(a) != counters(b)

    def test_corruption_is_counted_and_rejected_by_auth(self):
        plan = FaultPlan(seed=0, defaults=LinkFaults(corrupt=0.2))
        deployed, _ = deploy_live(
            30, 9.0, seed=SEED, transport="loopback", fault_plan=plan
        )
        got = counters(deployed)
        assert got["fault.corrupt"] > 0
        # Corrupted setup frames surface as drops, never as accepted state.
        assert validate_clusters(deployed) == []

    def test_per_link_rates_override_defaults(self):
        plan = FaultPlan(per_link={(1, 2): LinkFaults(drop=1.0)})
        assert plan.link(1, 2).drop == 1.0
        assert plan.link(2, 1).is_noop
        assert not plan.is_noop


class TestCrashesAndPartitions:
    def test_crash_and_restart_schedule(self):
        plan = FaultPlan(
            crashes=(CrashEvent(5, at_s=40.0, restart_at_s=60.0), CrashEvent(7, at_s=45.0))
        )
        deployed, _ = deploy_live(
            30, 9.0, seed=SEED, transport="loopback", fault_plan=plan
        )
        deployed.run_for(70.0)
        assert deployed.agents[5].node.alive  # restarted
        assert not deployed.agents[7].node.alive  # permanent
        got = counters(deployed)
        assert got["fault.crash"] == 2
        assert got["fault.restart"] == 1

    def test_crashed_node_keeps_state_for_restart(self):
        plan = FaultPlan(crashes=(CrashEvent(5, at_s=40.0, restart_at_s=41.0),))
        deployed, _ = deploy_live(
            30, 9.0, seed=SEED, transport="loopback", fault_plan=plan
        )
        before = deployed.agents[5].state.stored_key_count()
        deployed.run_for(50.0)
        assert deployed.agents[5].state.stored_key_count() == before

    def test_partition_severs_only_across_the_cut(self):
        part = Partition(nodes=frozenset({1, 2}), start_s=10.0, end_s=20.0)
        assert part.severs(1, 3, 15.0)
        assert part.severs(3, 2, 15.0)
        assert not part.severs(1, 2, 15.0)  # same side
        assert not part.severs(3, 4, 15.0)  # same side
        assert not part.severs(1, 3, 25.0)  # window over

    def test_partition_drops_are_counted(self):
        plan = FaultPlan(partitions=(Partition(frozenset({1, 2, 3}), 0.0, 1e9),))
        deployed, _ = deploy_live(
            30, 9.0, seed=SEED, transport="loopback", fault_plan=plan
        )
        assert counters(deployed)["fault.partition_drop"] > 0


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            LinkFaults(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaults(duplicate=-0.1)

    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashEvent(1, at_s=10.0, restart_at_s=5.0)

    def test_partition_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            Partition(frozenset({1}), start_s=10.0, end_s=5.0)

    def test_crash_requires_a_crashable_endpoint(self):
        from repro.runtime.faults import FaultInjectingTransport
        from repro.runtime.loopback import LoopbackTransport

        class Shim:
            id = 1
            alive = True

            def receive(self, sender_id: int, frame: bytes) -> None:
                pass

        fabric = FaultInjectingTransport(
            LoopbackTransport(), FaultPlan(crashes=(CrashEvent(1, at_s=1.0),))
        )
        fabric.register(Shim())
        with pytest.raises(TypeError):
            fabric.run(5.0)


def test_faulted_status_frames_match_the_trace_counters():
    from repro.gateway import deployment_status

    deployed, _ = deploy_live(
        30, 8.0, seed=1, fault_plan=FaultPlan(seed=1, defaults=LinkFaults(drop=0.1))
    )
    frames = deployment_status(deployed)["frames"]
    trace = counters(deployed)
    assert trace.get("fault.drop", 0) > 0
    assert frames["sent"] == trace["net.frames_sent"]
    assert frames["bytes_sent"] == trace["net.bytes_sent"]
