"""Ablations of the design choices DESIGN.md calls out.

* **Election-timer mean** — the paper: singleton clusters "can be
  minimized by the right exponential distribution of the time delays".
  Sweeping the mean HELLO delay shows the trade-off: short timers mean
  simultaneous heads (more singletons), long timers stretch the window
  during which ``K_m`` is in memory.
* **Step 1 on/off + fusion** — end-to-end encryption vs in-network data
  fusion: transmissions saved when intermediate nodes may peek and
  discard redundant reports (the paper's aggregation motivation).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.experiments.common import ExperimentTable, averaged_metric, setup_sweep
from repro.protocol.aggregation import DuplicateEventFilter, encode_reading
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import deploy

PAPER_FIGURE_TIMER = "Ablation: clusterhead election timer"
PAPER_FIGURE_FUSION = "Ablation: Step 1 vs in-network data fusion"
PAPER_FIGURE_REFRESH = "Ablation: key-refresh strategy (Sec. IV-C / VI)"


def run_timer(
    means: Sequence[float] = (0.05, 0.2, 0.5, 1.0),
    n: int = 500,
    density: float = 10.0,
    seeds: Iterable[int] = range(3),
) -> ExperimentTable:
    """Singleton fraction and head fraction vs mean election delay."""
    table = ExperimentTable(
        title=f"{PAPER_FIGURE_TIMER} (n={n}, density {density:g})",
        headers=["mean delay (s)", "singleton fraction", "head fraction", "keys/node"],
    )
    for mean_delay in means:
        config = ProtocolConfig(
            mean_hello_delay_s=mean_delay,
            cluster_phase_duration_s=max(5.0, 10 * mean_delay),
        )
        runs = setup_sweep([density], n, seeds, config)[density]
        singles, _ = averaged_metric(runs, lambda m: m.singleton_fraction)
        heads, _ = averaged_metric(runs, lambda m: m.head_fraction)
        keys, _ = averaged_metric(runs, lambda m: m.mean_keys_per_node)
        table.add_row(mean_delay, singles, heads, keys)
    table.notes.append(
        "paper shape: longer timers -> fewer simultaneous heads -> fewer singletons"
    )
    return table


def run_fusion(
    n: int = 300,
    density: float = 12.0,
    seed: int = 0,
    n_events: int = 10,
    reporters_per_event: int = 5,
) -> ExperimentTable:
    """Radio transmissions with/without Step 1 and with/without fusion.

    ``reporters_per_event`` sensors observe each of ``n_events`` events and
    all report; fusion-capable forwarders suppress redundant reports.
    """
    rng = np.random.default_rng(seed)
    table = ExperimentTable(
        title=f"{PAPER_FIGURE_FUSION} (n={n}, {n_events} events x {reporters_per_event} reporters)",
        headers=["mode", "data tx", "delivered events", "fused drops"],
    )

    for mode, e2e, fused in (
        ("step1 on (no fusion possible)", True, False),
        ("step1 off, no fusion", False, False),
        ("step1 off + duplicate fusion", False, True),
    ):
        config = ProtocolConfig(end_to_end_encryption=e2e)
        deployed, _ = deploy(n, density, seed=seed, config=config)
        if fused:
            for agent in deployed.agents.values():
                agent.fusion = DuplicateEventFilter()
        trace = deployed.network.trace
        routable = deployed.gradient.routable()
        for event in range(n_events):
            reporters = rng.choice(routable, size=reporters_per_event, replace=False)
            for origin in reporters:
                deployed.agents[int(origin)].send_reading(
                    encode_reading(event, 20.0 + event, int(origin))
                )
        deployed.run_for(60)
        events_seen = {
            int.from_bytes(r.data[:4], "big") for r in deployed.bs_agent.delivered
        }
        table.add_row(
            mode,
            trace["tx.data"],
            f"{len(events_seen)}/{n_events}",
            trace["drop.data_fused"],
        )
    table.notes.append(
        "paper shape: fusion cuts transmissions substantially while every "
        "event still reaches the base station"
    )
    return table


def run_refresh(n: int = 300, density: float = 12.0, seed: int = 0) -> ExperimentTable:
    """Compare the two refresh strategies on cost and key-rotation effect.

    Columns: radio messages the refresh round costs, whether a pre-refresh
    captured key still decrypts anything afterwards, and whether data
    still reaches the base station.
    """
    from repro.attacks import Adversary
    from repro.protocol.refresh import RefreshCoordinator

    table = ExperimentTable(
        title=f"{PAPER_FIGURE_REFRESH} (n={n}, density {density:g})",
        headers=["strategy", "messages/round", "stolen key survives", "delivery after"],
    )
    for strategy in ("rehash", "recluster"):
        config = ProtocolConfig(refresh_strategy=strategy)
        deployed, _ = deploy(n, density, seed=seed, config=config)
        victim = sorted(deployed.agents)[5]
        cap = Adversary(deployed).capture(victim)
        trace = deployed.network.trace
        frames_before = trace["net.frames_sent"]
        RefreshCoordinator(deployed).run_round(settle_s=5.0)
        messages = trace["net.frames_sent"] - frames_before
        survives = any(
            deployed.agents[victim].state.keyring.get(cid).material == key
            for cid, key in cap.cluster_keys.items()
            if deployed.agents[victim].state.keyring.has(cid)
        )
        src = deployed.gradient.routable()[0]
        deployed.agents[src].send_reading(b"post-refresh")
        deployed.run_for(30)
        delivered = any(
            r.data == b"post-refresh" for r in deployed.bs_agent.delivered
        )
        table.add_row(strategy, messages, str(survives), str(delivered))
    table.notes.append(
        "paper shape: hashing refreshes keys for free and leaves a "
        "HELLO-flood attacker nothing to inject"
    )
    return table


PAPER_FIGURE_COUNTER = "Ablation: Step-1 counter handling (Sec. IV-C)"


def run_counter_mode(n: int = 200, density: float = 12.0, seed: int = 0) -> ExperimentTable:
    """Implicit (shared) vs explicit (transmitted) Step-1 counters.

    The paper: "The counter approach results in less transmission overhead
    as the counter is maintained in both ends. If counter synchronization
    is a problem ... the counter ... can be sent alongside the message."
    Columns quantify exactly that trade: bytes on air per reading vs the
    desynchronization the base station survives.
    """
    table = ExperimentTable(
        title=f"{PAPER_FIGURE_COUNTER} (n={n}, density {density:g})",
        headers=["mode", "data bytes/frame", "survives 500-msg desync"],
    )
    for mode in ("implicit", "explicit"):
        config = ProtocolConfig(e2e_counter_mode=mode)
        deployed, _ = deploy(n, density, seed=seed, config=config)
        trace = deployed.network.trace
        src = deployed.gradient.routable()[0]
        agent = deployed.agents[src]
        frames0, bytes0 = trace["net.frames_sent"], trace["net.bytes_sent"]
        agent.send_reading(b"0123456789")
        deployed.run_for(30)
        per_frame = (trace["net.bytes_sent"] - bytes0) / (trace["net.frames_sent"] - frames0)
        for _ in range(500):
            agent.state.next_e2e_counter()
        agent.send_reading(b"after-desync")
        deployed.run_for(30)
        survived = any(r.data == b"after-desync" for r in deployed.bs_agent.delivered)
        table.add_row(mode, per_frame, str(survived))
    table.notes.append(
        "paper shape: implicit is cheaper on air; explicit is desync-proof"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_timer().render())
    print()
    print(run_fusion().render())
    print()
    print(run_refresh().render())
    print()
    print(run_counter_mode().render())


if __name__ == "__main__":  # pragma: no cover
    main()
