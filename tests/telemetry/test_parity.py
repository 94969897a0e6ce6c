"""Telemetry parity: one metric vocabulary, identical totals across backends.

The registry is only trustworthy if the *numbers* it reports do not
depend on which fabric carried the frames. Key setup is fully
deterministic on the simulator and the loopback transport, so for the
same seed the entire setup-phase counter map — protocol counters and
link-layer ``net.*`` counters alike — must be equal across them.
"""

from repro.protocol.setup import deploy
from repro.runtime import deploy_live

N, DENSITY, SEED = 60, 10.0, 11


def test_sim_and_loopback_counter_totals_identical():
    sim_deployed, _ = deploy(N, DENSITY, seed=SEED)
    lb_deployed, _ = deploy_live(N, DENSITY, seed=SEED, transport="loopback")
    sim_counters = dict(sim_deployed.network.trace.counters)
    lb_counters = dict(lb_deployed.network.trace.counters)
    assert sim_counters == lb_counters
    # The comparison is only meaningful if something was actually counted.
    assert sim_counters["tx.hello"] > 0
    assert sim_counters["tx.linkinfo"] > 0
    assert sim_counters["net.frames_sent"] > 0


def test_setup_gauges_published_identically():
    sim_deployed, _ = deploy(N, DENSITY, seed=SEED)
    lb_deployed, _ = deploy_live(N, DENSITY, seed=SEED, transport="loopback")
    sim_reg = sim_deployed.network.trace.registry
    lb_reg = lb_deployed.network.trace.registry
    assert sim_reg.gauges == lb_reg.gauges
    assert sim_reg.gauges["setup.nodes"] == N
    assert sim_reg.snapshot()["histograms"] == lb_reg.snapshot()["histograms"]
    assert "setup.cluster_size" in sim_reg.histograms


def test_setup_events_emitted_on_both_backends():
    _, _ = deploy(N, DENSITY, seed=SEED)  # seed path works without buffering
    lb_deployed, metrics = deploy_live(
        N, DENSITY, seed=SEED, transport="loopback", event_log_limit=64
    )
    events = lb_deployed.network.trace.events.events
    kinds = [e.kind for e in events]
    assert kinds[0] == "setup.begin"
    assert "setup.end" in kinds
    end = next(e for e in events if e.kind == "setup.end")
    assert end.phase == "setup"
    assert end.details["clusters"] == metrics.cluster_count
    assert end.details["hello_messages"] == metrics.hello_messages
