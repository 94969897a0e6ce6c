"""Broadcast cost across schemes (Secs. II/IV claim).

"To broadcast a message in such a scheme the transmitter must encrypt the
message multiple times, each time with a key shared with a specific
neighbor. And this, of course, is extremely energy consuming." — this
paper's protocol (and LEAP, and the global key) broadcast with one
transmission; pairwise and random-predistribution schemes pay roughly one
per neighbor. The table also prices the difference in radio energy using
the energy model.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import FullPairwiseScheme, GlobalKeyScheme, LdpSchemeModel, node_ids
from repro.experiments.common import ExperimentTable, live_rivals
from repro.protocol.setup import deploy
from repro.sim.energy import EnergyModel

PAPER_FIGURE = "Secs. II/IV (broadcast-cost claim)"

#: Representative sensor frame: 41 payload bytes + 11 header (TinySec-era).
FRAME_BYTES = 52


def run(n: int = 400, density: float = 12.5, seed: int = 0) -> ExperimentTable:
    """Per-node broadcast transmissions and energy for every scheme."""
    deployed, _ = deploy(n, density, seed=seed)
    deployment = deployed.network.deployment
    energy = EnergyModel()

    leap, eg, qc = live_rivals(n, density, seed)
    schemes = [
        LdpSchemeModel(deployed),
        GlobalKeyScheme(deployment),
        leap,
        FullPairwiseScheme(deployment),
        eg,
        qc,
    ]
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: broadcast cost per scheme (n={n}, density {density:g})",
        headers=["scheme", "tx/broadcast", "uJ/broadcast", "keys/node", "bootstrap tx/node"],
    )
    for scheme in schemes:
        txs = [scheme.broadcast_transmissions(i) for i in node_ids(deployment)]
        boot = [scheme.bootstrap_transmissions(i) for i in node_ids(deployment)]
        mean_tx = float(np.mean(txs))
        table.add_row(
            scheme.name,
            mean_tx,
            mean_tx * energy.tx_cost(FRAME_BYTES),
            float(np.mean(scheme.keys_per_node())),
            float(np.mean(boot)),
        )
    table.notes.append("paper shape: this-paper/LEAP/global = 1 tx; pairwise ~= degree")
    table.notes.append(
        "bootstrap: LEAP pays ~1+degree transmissions (Sec. III's 'more "
        "expensive bootstrapping phase'); this paper pays ~1.1-1.2 (Fig. 9)"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
