"""Performance benchmarks behind ``python -m repro bench ...``.

Four benchmark families. Each ``bench_<name>`` returns the payload that
``repro bench <name>`` writes to a machine-readable ``BENCH_<name>.json``
at the repo root, which ``scripts/bench_compare.py`` gates CI against,
and ``render_bench_<name>`` prints it as a table (docs/BENCHMARKS.md is
the handbook for all of them):

* :mod:`repro.bench.crypto` — keystream-kernel and frame-path
  microbenchmarks (``BENCH_crypto.json``);
* :mod:`repro.bench.forwarding` — sustained-forwarding soak plus the
  batched-codec micro rows (``BENCH_forwarding.json``);
* :mod:`repro.bench.runtime` — key-setup throughput on the in-process
  fabric, with and without injected faults, up to paper scale
  (``BENCH_runtime.json``);
  ``benchmarks/test_runtime_throughput.py`` is a thin pytest wrapper
  over the same rows;
* :mod:`repro.bench.churn` — lifecycle scenarios under continuous
  mobility and sustained churn, one row per (mobility model, loss)
  cell (``BENCH_churn.json``).
"""

from repro.bench.churn import bench_churn, render_bench_churn
from repro.bench.crypto import bench_crypto, render_bench_crypto
from repro.bench.forwarding import bench_forwarding, render_bench_forwarding
from repro.bench.runtime import bench_runtime, render_bench_runtime

__all__ = [
    "bench_churn",
    "bench_crypto",
    "bench_forwarding",
    "bench_runtime",
    "render_bench_churn",
    "render_bench_crypto",
    "render_bench_forwarding",
    "render_bench_runtime",
]
