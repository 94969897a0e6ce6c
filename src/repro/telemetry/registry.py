"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` exists per deployment (owned by its
:class:`~repro.sim.trace.Trace`, reachable as ``trace.registry`` from
every node). Three metric kinds, mirroring the usual observability
vocabulary:

* **counters** — monotonically increasing integers (``tx.hello``,
  ``net.frames_sent``); the quantities Section V's figures are computed
  from;
* **gauges** — last-write-wins floats (``setup.clusters``,
  ``setup.mean_keys_per_node``), for point-in-time levels;
* **histograms** — integer-valued distributions reusing
  :class:`repro.util.stats.Histogram` (``setup.cluster_size``), for the
  paper's Fig.-1-style shape plots.

Every metric name used anywhere in the repo is documented, with type,
unit and emission site, in ``docs/TELEMETRY.md`` — that file is the
contract benchmark consumers program against, and a test
(``tests/telemetry/test_docs_coverage.py``) fails if code and contract
drift apart.
"""

from __future__ import annotations

from collections import Counter

from repro.util.stats import Histogram

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Transport-agnostic store of named counters, gauges and histograms."""

    def __init__(self) -> None:
        """Create an empty registry."""
        #: Monotonic named counters (a :class:`collections.Counter`).
        self.counters: Counter = Counter()
        #: Last-write-wins named levels.
        self.gauges: dict[str, float] = {}
        #: Integer-valued named distributions.
        self.histograms: dict[str, Histogram] = {}

    # -- write paths ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> int:
        """Increment counter ``name`` by ``amount``; returns the new total."""
        if amount < 0:
            raise ValueError(f"counters are monotonic; cannot add {amount}")
        self.counters[name] += amount
        return self.counters[name]

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (overwrites the previous level)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: int, weight: int = 1) -> None:
        """Add one observation of ``value`` to histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.add(int(value), weight)

    # -- read paths ----------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current total of counter ``name`` (0 if never incremented)."""
        return self.counters[name]

    def metric_names(self) -> list[str]:
        """Sorted names of every metric that has been touched."""
        names = set(self.counters) | set(self.gauges) | set(self.histograms)
        return sorted(names)

    def snapshot(self) -> dict:
        """One JSON-serializable snapshot of every metric's current value.

        Shape: ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: {value: count}}}`` with every mapping sorted
        by name — the exact structure JSONL ``sample`` and ``summary``
        records embed (see ``docs/TELEMETRY.md``).
        """
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: {str(v): c for v, c in sorted(h.counts.items())}
                for k, h in sorted(self.histograms.items())
            },
        }
