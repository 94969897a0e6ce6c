"""The setup-time security argument (Secs. IV-B / VI), quantified.

Every authenticated-bootstrap protocol of this family rests on one
assumption: key setup completes before an adversary can physically
compromise a node and read ``K_m`` out of its memory. The paper supports
it with Fig. 9 ("the overall time needed to establish the keys is a
little more than transmission of one message plus the time to decrypt").

This experiment measures the *actual simulated time* of the vulnerable
window — from deployment until the last node erases ``K_m`` — across
densities and radio bitrates, and compares it against published
node-compromise times (minutes of physical access for mote-class
hardware; we use the :class:`~repro.attacks.adversary.CaptureTimingModel`
default of 60 s as a conservative lower bound).

Note the window in this simulation is dominated by the *configured* timer
schedule (election delays + link jitter + settle margin), not by radio
airtime: the protocol spends its time waiting out randomized timers,
exactly as on real motes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.attacks.adversary import CaptureTimingModel
from repro.experiments.common import ExperimentTable
from repro.protocol.config import ProtocolConfig
from repro.protocol.setup import provision
from repro.sim.network import Network
from repro.sim.radio import RadioConfig
from repro.util.stats import mean_confidence_interval

PAPER_FIGURE = "Secs. IV-B/VI (setup-time vs capture-time assumption)"


def measure_km_window(
    n: int,
    density: float,
    seed: int,
    config: ProtocolConfig | None = None,
    bitrate_bps: float = 19_200.0,
) -> tuple[float, float, int]:
    """Run one setup; return (time of last HELLO/LINKINFO on air,
    configured K_m-erasure time, setup frames sent).

    The first value is when the *radio activity* of setup ends — the
    earliest moment the deployment could safely erase K_m; the second is
    when the (conservative) fixed schedule actually erases it.
    """
    config = config or ProtocolConfig()
    network = Network.build(
        n, density, seed=seed, radio_config=RadioConfig(bitrate_bps=bitrate_bps)
    )
    deployed = provision(network, config)
    last_setup_tx = 0.0

    def monitor(time: float, sender: int, frame: bytes) -> None:
        nonlocal last_setup_tx
        if frame and frame[0] in (1, 2):  # HELLO, LINKINFO
            last_setup_tx = time

    network.radio.monitors.append(monitor)
    for agent in deployed.agents.values():
        agent.start_setup()
    network.transport.run(until=config.setup_end_s)
    return last_setup_tx, config.setup_end_s, network.trace["net.frames_sent"]


def run(
    densities: Sequence[float] = (8.0, 12.5, 20.0),
    n: int = 500,
    seeds: Iterable[int] = range(3),
    capture_model: CaptureTimingModel | None = None,
) -> ExperimentTable:
    """Vulnerable-window length vs the adversary's compromise time."""
    capture_model = capture_model or CaptureTimingModel()
    table = ExperimentTable(
        title=f"{PAPER_FIGURE}: K_m exposure window (n={n})",
        headers=[
            "density",
            "last setup tx (s)",
            "K_m erased at (s)",
            "capture needs (s)",
            "margin",
        ],
    )
    for density in densities:
        last_txs, erase_at = [], None
        for seed in seeds:
            last_tx, erase_at, _frames = measure_km_window(n, density, seed)
            last_txs.append(last_tx)
        mean_tx, _ = mean_confidence_interval(last_txs)
        margin = capture_model.seconds_to_compromise / erase_at
        table.add_row(
            density,
            mean_tx,
            erase_at,
            capture_model.seconds_to_compromise,
            f"{margin:.1f}x",
        )
    table.notes.append(
        "paper claim: setup ends well before a physical compromise can "
        "finish; margin = capture time / erasure time (>1 means safe)"
    )
    return table


def main() -> None:  # pragma: no cover - CLI convenience
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
