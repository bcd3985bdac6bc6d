"""Structured events: the pipeline's narrated timeline.

Metrics answer "how much"; spans answer "how long"; events answer
"what happened" — a run started, a connection died and was re-dialed,
a fault fired, the watchdog saw a stage stall.  Every event carries
the same schema on both substrates (wall-clock seconds live, virtual
seconds in the sim), so a chaos run's story reads identically whether
it happened for real or on the discrete-event engine:

``{ts, kind, severity, source, message, ...fields}``

:class:`EventBus` keeps the most recent events in a bounded,
thread-safe ring buffer (the ``/events`` endpoint of
:class:`~repro.obs.server.ObservabilityServer` reads it) and can mirror
every emission to a JSONL file sink for post-hoc analysis
(``--events-out``).  :class:`EventLogHandler` bridges the stdlib
``repro.*`` loggers into the bus, unifying :mod:`repro.util.log`
narration with the typed event stream.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Mapping

#: Blessed severities, least to most urgent.
SEVERITIES: tuple[str, ...] = ("debug", "info", "warning", "error")

#: Well-known event kinds (open set — subsystems may add their own, but
#: these are the ones both substrates emit and tests assert on).
EVENT_KINDS: tuple[str, ...] = (
    "run_start",          # a pipeline/endpoint run began
    "run_end",            # ... and finished (fields: ok, elapsed)
    "transport_retry",    # a reconnect attempt after a dead connection
    "fault_injected",     # the fault layer sabotaged a frame
    "stage_stall",        # watchdog: a worker stopped beating
    "stall_cleared",      # watchdog: the stalled worker resumed
    "worker_restart",     # supervisor: a crashed process worker respawned
    "worker_exit",        # supervisor: a process worker gave up for good
    "backpressure",       # watchdog: a queue pinned at depth
    "bottleneck_shift",   # watchdog: the busiest stage changed
    "log",                # bridged stdlib log record
)


@dataclass(frozen=True)
class Event:
    """One structured occurrence on the pipeline timeline."""

    ts: float
    kind: str
    severity: str = "info"
    source: str = "live"
    message: str = ""
    fields: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r} (choose from {SEVERITIES})"
            )

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape written to sinks and served by ``/events``."""
        out: dict[str, Any] = {
            "ts": self.ts,
            "kind": self.kind,
            "severity": self.severity,
            "source": self.source,
            "message": self.message,
        }
        out.update(self.fields)
        return out


class EventBus:
    """Thread-safe bounded ring of events with an optional JSONL sink.

    The ring keeps the newest ``capacity`` events; the sink (when
    attached) sees *every* emission, so a bounded in-memory view and a
    complete on-disk record coexist.  ``ts`` defaults to wall epoch
    seconds; pass an explicit ``ts`` to emit on another timebase (the
    :class:`~repro.telemetry.Telemetry` facade forwards its own clock,
    which is virtual in the simulator).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        source: str = "live",
        jsonl_path: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.source = source
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()
        self._emitted = 0
        self._sink: IO[str] | None = None
        if jsonl_path is not None:
            self.attach_sink(jsonl_path)

    # -- emission --------------------------------------------------------

    def emit(
        self,
        kind: str,
        message: str = "",
        *,
        severity: str = "info",
        ts: float | None = None,
        source: str | None = None,
        **fields: Any,
    ) -> Event:
        """Record one event; returns it (handy for tests)."""
        event = Event(
            ts=time.time() if ts is None else ts,
            kind=kind,
            severity=severity,
            source=self.source if source is None else source,
            message=message,
            fields=dict(fields),
        )
        line: str | None = None
        with self._lock:
            self._ring.append(event)
            self._counts[kind] += 1
            self._emitted += 1
            if self._sink is not None:
                line = json.dumps(event.to_dict(), default=str)
                self._sink.write(line + "\n")
                self._sink.flush()
        return event

    # -- sinks -----------------------------------------------------------

    def attach_sink(self, path: str) -> None:
        """Mirror every future emission to ``path`` as JSON lines."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
            self._sink = open(path, "w", encoding="utf-8")

    def close(self) -> None:
        """Flush and close the sink (the ring stays readable)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (ring overflow does not reset it)."""
        with self._lock:
            return self._emitted

    def recent(
        self,
        n: int | None = None,
        *,
        kind: str | None = None,
        min_severity: str = "debug",
    ) -> list[Event]:
        """Newest-last slice of the ring, optionally filtered."""
        floor = SEVERITIES.index(min_severity)
        with self._lock:
            events: Iterable[Event] = list(self._ring)
        out = [
            e
            for e in events
            if (kind is None or e.kind == kind)
            and SEVERITIES.index(e.severity) >= floor
        ]
        return out if n is None else out[-n:]

    def counts(self) -> dict[str, int]:
        """Lifetime emission count per kind."""
        with self._lock:
            return dict(self._counts)


#: stdlib levelno -> event severity.
_LEVEL_SEVERITY: tuple[tuple[int, str], ...] = (
    (logging.ERROR, "error"),
    (logging.WARNING, "warning"),
    (logging.INFO, "info"),
)


def severity_for_level(levelno: int) -> str:
    for floor, severity in _LEVEL_SEVERITY:
        if levelno >= floor:
            return severity
    return "debug"


class EventLogHandler(logging.Handler):
    """Routes stdlib log records into an :class:`EventBus`.

    Installed on the ``"repro"`` logger by
    :func:`repro.util.log.attach_event_bus`, it turns the library's
    debug narration (planner placements, scheduler migrations, ...)
    into ``kind="log"`` events so one timeline holds both typed events
    and free-form diagnostics.
    """

    def __init__(self, bus: EventBus, level: int = logging.DEBUG) -> None:
        super().__init__(level)
        self.bus = bus

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.bus.emit(
                "log",
                record.getMessage(),
                severity=severity_for_level(record.levelno),
                logger=record.name,
            )
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)
