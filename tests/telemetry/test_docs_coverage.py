"""docs/TELEMETRY.md is a contract: every metric in code is documented.

Extracts every literal metric/event name from the source tree — counter
names passed to ``trace.count(...)`` / ``registry.inc(...)``, gauge
names, histogram keys, and event kinds passed to ``trace.record`` —
and asserts each appears verbatim in ``docs/TELEMETRY.md``. Also runs
the repo's doc link checker so a broken cross-reference fails the same
suite that guards the names.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DOC = ROOT / "docs" / "TELEMETRY.md"

NAME_CALL = re.compile(
    r"\.(?:count|inc|gauge|observe)\(\s*['\"]([A-Za-z0-9_.]+)['\"]"
)
HIST_KEY = re.compile(r"histograms\[\s*['\"]([A-Za-z0-9_.]+)['\"]\s*\]")
RECORD_KIND = re.compile(r"\.record\(\s*[^,]+,\s*['\"]([A-Za-z0-9_.]+)['\"]")


def source_metric_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for pattern in (NAME_CALL, HIST_KEY, RECORD_KIND):
            names.update(pattern.findall(text))
    return names


def test_sources_define_metrics_at_all():
    names = source_metric_names()
    # Sanity: the extraction regexes still match the codebase's idiom.
    assert "tx.hello" in names
    assert "net.frames_sent" in names
    assert "setup.cluster_size" in names
    assert "setup.begin" in names
    assert len(names) > 80


def test_soak_metrics_extracted_and_documented():
    # The soak workload publishes through three different registry call
    # shapes (count, gauge, observe); pin that the extraction sees every
    # forward.soak.* name and that each is documented explicitly, so a
    # renamed soak metric cannot silently fall out of the doc.
    names = source_metric_names()
    doc = DOC.read_text(encoding="utf-8")
    expected = {
        "forward.soak.sent",
        "forward.soak.send_failures",
        "forward.soak.delivered",
        "forward.soak.latency_ms",
        "forward.soak.offered_load_fps",
        "forward.soak.delivery_ratio",
        "forward.soak.p50_latency_ms",
        "forward.soak.p99_latency_ms",
    }
    assert expected <= names
    for name in sorted(expected):
        assert name in doc


def test_every_metric_name_is_documented():
    doc = DOC.read_text(encoding="utf-8")
    undocumented = sorted(n for n in source_metric_names() if n not in doc)
    assert not undocumented, (
        f"metric names missing from docs/TELEMETRY.md: {undocumented} — "
        "every counter/gauge/histogram/event name must be documented there"
    )


def test_doc_links_resolve():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_doc_links.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
