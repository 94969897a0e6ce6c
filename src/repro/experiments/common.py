"""Shared experiment machinery: sweeps, aggregation, table rendering.

The paper's Section V evaluates the key-setup phase over random
deployments of 2 500–3 600 nodes at densities (mean neighbors per node)
8–20. :func:`setup_sweep` runs that grid over multiple seeds and hands
each figure module the per-run :class:`~repro.protocol.metrics.SetupMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.leap import LeapDeployment, run_leap_bootstrap
from repro.protocol.config import ProtocolConfig
from repro.protocol.metrics import SetupMetrics
from repro.protocol.setup import deploy
from repro.randkp import RandKpDeployment, run_randkp_bootstrap
from repro.util.stats import mean_confidence_interval

#: The density grid of Figs. 6–9.
PAPER_DENSITIES: tuple[float, ...] = (8.0, 10.0, 12.5, 15.0, 17.5, 20.0)

#: The paper's deployment sizes ("2500 to 3600"; Fig. 9 uses 2000).
PAPER_N = 2500
PAPER_N_FIG9 = 2000


@dataclass
class ExperimentTable:
    """A rendered experiment result: headers, rows, and provenance notes."""

    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells) -> None:
        """Append one row (cells are stringified)."""
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        """ASCII table, ready for stdout or EXPERIMENTS.md."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def column(self, name: str) -> list[str]:
        """All cells of the named column (for assertions in benches)."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def setup_sweep(
    densities: Sequence[float],
    n: int,
    seeds: Iterable[int],
    config: ProtocolConfig | None = None,
) -> dict[float, list[SetupMetrics]]:
    """Run key setup for every (density, seed) pair; group runs by density."""
    results: dict[float, list[SetupMetrics]] = {}
    for density in densities:
        runs: list[SetupMetrics] = []
        for seed in seeds:
            _, metrics = deploy(n, density, seed=seed, config=config)
            runs.append(metrics)
        results[density] = runs
    return results


def averaged_metric(
    runs: list[SetupMetrics], metric: Callable[[SetupMetrics], float]
) -> tuple[float, float]:
    """Mean and 95%-CI halfwidth of ``metric`` over a group of runs."""
    return mean_confidence_interval(metric(m) for m in runs)


def live_rivals(
    n: int, density: float, seed: int
) -> tuple[LeapDeployment, RandKpDeployment, RandKpDeployment]:
    """LEAP, Eschenauer–Gligor and q-composite (q=2), each bootstrapped
    live on the same ``(n, density, seed)`` field as :func:`deploy`.

    The predistribution schemes use a 10,000-key pool and 150-key rings.
    """
    return (
        run_leap_bootstrap(n, density, seed=seed),
        run_randkp_bootstrap(n, density, seed=seed, pool_size=10_000, ring_size=150),
        run_randkp_bootstrap(n, density, seed=seed, pool_size=10_000, ring_size=150, q=2),
    )
