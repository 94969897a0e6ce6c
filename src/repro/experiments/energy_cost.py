"""Energy accounting of the protocol phases (Sec. II's efficiency claims).

Two tables:

* **Setup cost** — radio energy of the one-time key setup per node across
  densities. The paper's Fig. 9 counts messages; here the same runs are
  priced in microjoules with the mote energy model (setup is ~1.1–1.2
  frames/node, i.e. around a millijoule — negligible against a battery).
* **Reporting cost** — energy per delivered reading for a monitoring
  workload, with and without data fusion, translated into estimated
  battery lifetime.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.analysis.energy_report import EnergyReport
from repro.analysis.lifetime import daily_cost_uj, estimate_lifetime_days
from repro.experiments.common import ExperimentTable
from repro.protocol.aggregation import DuplicateEventFilter, encode_reading
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import deploy
from repro.sim.energy import EnergyModel
from repro.util.stats import mean_confidence_interval

PAPER_FIGURE = "Sec. II (energy-efficiency claims)"


def run_setup_cost(
    densities: Sequence[float] = (8.0, 12.5, 20.0),
    n: int = 400,
    seeds: Iterable[int] = range(2),
) -> ExperimentTable:
    """Radio energy of the key-setup phase, per node."""
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: key-setup energy per node (n={n})",
        headers=["density", "uJ/node", "ci95", "radio fraction"],
    )
    for density in densities:
        per_node, radio_frac = [], []
        for seed in seeds:
            deployed, _ = deploy(n, density, seed=seed)
            snap = EnergyReport(deployed.network).snapshot()
            per_node.append(snap.per_node)
            radio_frac.append(snap.radio_fraction)
        mean, ci = mean_confidence_interval(per_node)
        table.add_row(density, mean, ci, float(np.mean(radio_frac)))
    table.notes.append(
        "paper shape: setup costs about one frame of tx plus neighborhood "
        "rx per node — negligible against a mote battery"
    )
    return table


def run_reporting_cost(
    n: int = 300,
    density: float = 12.0,
    seed: int = 0,
    n_events: int = 10,
    reporters_per_event: int = 5,
    events_per_day: float = 200.0,
) -> ExperimentTable:
    """Energy per delivered event, fusion off vs on, with lifetime estimate."""
    table = ExperimentTable(
        title=(
            f"{PAPER_FIGURE}: reporting energy "
            f"({n_events} events x {reporters_per_event} reporters, n={n})"
        ),
        headers=["mode", "uJ/event (net)", "est. lifetime (days)"],
    )
    rng = np.random.default_rng(seed)
    for fused in (False, True):
        config = ProtocolConfig(end_to_end_encryption=False)
        deployed, _ = deploy(n, density, seed=seed, config=config)
        if fused:
            for agent in deployed.agents.values():
                agent.fusion = DuplicateEventFilter()
        report = EnergyReport(deployed.network)
        baseline = report.snapshot()
        routable = deployed.gradient.routable()
        for event in range(n_events):
            reporters = rng.choice(routable, size=reporters_per_event, replace=False)
            for origin in reporters:
                deployed.agents[int(origin)].send_reading(
                    encode_reading(event, 20.0, int(origin))
                )
        deployed.run_for(120)
        spent = report.snapshot().minus(baseline)
        per_event = spent.total / n_events
        # Network-wide daily spend if this workload repeats all day,
        # spread over n nodes, against an AA pair each.
        daily_per_node = per_event * events_per_day / n
        lifetime = estimate_lifetime_days(
            daily_per_node + daily_cost_uj(EnergyModel(), 0, 0)
        )
        mode = "duplicate fusion" if fused else "no fusion"
        table.add_row(mode, per_event, f"{lifetime:.0f}")
    table.notes.append(
        "paper shape: fusion cuts the per-event energy by roughly the "
        "duplicate factor, extending lifetime proportionally"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_setup_cost().render())
    print()
    print(run_reporting_cost().render())


if __name__ == "__main__":  # pragma: no cover
    main()
