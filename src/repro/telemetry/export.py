"""JSONL export and periodic sampling of a deployment's telemetry.

Three record types, one JSON object per line (the full schema, with every
field, lives in ``docs/TELEMETRY.md``):

* ``event`` — one :class:`~repro.telemetry.events.TelemetryEvent`;
* ``sample`` — a periodic :meth:`MetricsRegistry.snapshot` taken on the
  deployment's protocol clock by a :class:`PeriodicSampler`;
* ``summary`` — the final snapshot plus run-level extras (transport,
  node count, setup metrics), written once when a run closes.

Every record carries ``t`` (protocol/virtual seconds) and ``wall``
(Unix wall-clock seconds, stamped at write time so virtual-clock runs
stay deterministic). ``python -m repro run-live --metrics-out m.jsonl``
streams all three; ``python -m repro metrics summarize m.jsonl`` folds
them back into the shape :class:`repro.protocol.metrics.SetupMetrics`
reports (see :mod:`repro.telemetry.summary`).
"""

from __future__ import annotations

import json
import os
import time as _time
from typing import IO, TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.events import EventStream, TelemetryEvent
    from repro.telemetry.registry import MetricsRegistry

__all__ = ["JsonlWriter", "PeriodicSampler", "read_records"]


class JsonlWriter:
    """Streams telemetry records to a file as JSON Lines."""

    def __init__(
        self,
        target: str | os.PathLike | IO[str],
        wall_clock: Callable[[], float] = _time.time,
    ) -> None:
        """``target`` is a path (opened for writing, truncating) or an open
        text stream. ``wall_clock`` stamps each record's ``wall`` field and
        is injectable for deterministic tests.
        """
        if isinstance(target, (str, os.PathLike)):
            self._fp: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_fp = True
        else:
            self._fp = target
            self._owns_fp = False
        self._wall_clock = wall_clock
        self.records_written = 0

    def write(self, record: dict) -> None:
        """Append one record (stamped with ``wall``) as a JSON line."""
        record = dict(record)
        record.setdefault("wall", round(self._wall_clock(), 6))
        self._fp.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.records_written += 1

    def write_event(self, event: "TelemetryEvent") -> None:
        """Append one ``event`` record."""
        self.write(event.to_record())

    def write_sample(self, t: float, registry: "MetricsRegistry") -> None:
        """Append one ``sample`` record: the registry snapshot at time ``t``."""
        self.write({"type": "sample", "t": t, "metrics": registry.snapshot()})

    def write_summary(
        self, t: float, registry: "MetricsRegistry", **extra: Any
    ) -> None:
        """Append the final ``summary`` record with run-level ``extra`` keys."""
        record = {"type": "summary", "t": t, "metrics": registry.snapshot()}
        record.update(extra)
        self.write(record)

    def subscribe_to(self, stream: "EventStream") -> Callable[[], None]:
        """Stream every future event of ``stream``; returns the unsubscribe.

        Events already buffered in ``stream`` are written out first, so a
        writer attached after key setup still exports the setup phase.
        """
        for event in stream.events:
            self.write_event(event)
        return stream.subscribe(self.write_event)

    def flush(self) -> None:
        """Flush the underlying stream."""
        self._fp.flush()

    def close(self) -> None:
        """Flush, and close the file if this writer opened it."""
        self._fp.flush()
        if self._owns_fp:
            self._fp.close()

    def __enter__(self) -> "JsonlWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the writer."""
        self.close()


class PeriodicSampler:
    """Writes registry snapshots every ``period_s`` of protocol time.

    Self-rearming timer on the deployment's own clock (any object with
    ``schedule(delay, callback)`` and ``now()`` — a
    :class:`~repro.protocol.setup.DeployedProtocol` or a transport), so
    the cadence is identical across the simulator, loopback and UDP.
    Sampling stops when :meth:`stop` is called; drive the clock with a
    bounded ``run_until`` / ``run_for``, since the rearm keeps one timer
    pending at all times.
    """

    def __init__(
        self,
        clock: Any,
        registry: "MetricsRegistry",
        writer: JsonlWriter,
        period_s: float,
        before_sample: Callable[[], None] | None = None,
    ) -> None:
        """``clock`` provides ``schedule``/``now``; samples go to ``writer``.

        ``before_sample``, if given, runs right before each snapshot —
        the hook deployments use to fold pull-style sources (the global
        crypto counters) into the registry so samples include them.
        """
        if period_s <= 0:
            raise ValueError("period_s must be > 0")
        self._clock = clock
        self._registry = registry
        self._writer = writer
        self._before_sample = before_sample
        self.period_s = period_s
        self.samples_taken = 0
        self._stopped = False
        self._handle: Any = None

    def start(self) -> None:
        """Take one sample now and begin the periodic cadence."""
        self._stopped = False
        self._tick()

    def stop(self) -> None:
        """Cancel the pending timer; no further samples are written."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _now(self) -> float:
        # DeployedProtocol exposes now() as a method, transports as a
        # property; accept both so the sampler clips onto either clock.
        now = self._clock.now
        return float(now() if callable(now) else now)

    def _tick(self) -> None:
        if self._stopped:
            return
        if self._before_sample is not None:
            self._before_sample()
        self._writer.write_sample(self._now(), self._registry)
        self.samples_taken += 1
        self._handle = self._clock.schedule(self.period_s, self._tick)


def read_records(path: str | os.PathLike) -> list[dict]:
    """Parse a telemetry JSONL file back into a list of record dicts.

    Blank lines are skipped; a malformed line, or one that is not a JSON
    object, raises ``ValueError`` naming its line number (a truncated tail
    is data loss worth surfacing, not silently ignoring).
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSONL line: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: JSONL line is not an object")
            records.append(record)
    return records
