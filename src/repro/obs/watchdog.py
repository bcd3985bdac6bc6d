"""The watchdog: heartbeats + queue gauges → stall/backpressure alerts.

A streaming pipeline fails quietly: a worker blocks on a dead socket, a
queue pins at capacity, the bottleneck migrates after a re-placement —
and throughput decays with nothing in the logs.  The watchdog closes
that gap by *consuming telemetry the pipeline already publishes*:

- **stalls** — every worker beats ``worker_heartbeat_seconds{worker}``
  when it finishes a span; a worker whose last beat is older than
  ``stall_after`` is stalled (``stage_stall`` event, cleared by
  ``stall_cleared`` when beats resume);
- **backpressure** — a ``pipeline_queue_depth`` gauge at or above
  ``backpressure_depth`` for ``backpressure_after`` seconds means a
  consumer can't keep up (``backpressure`` event);
- **bottleneck shifts** — every ``bottleneck_every`` polls the span
  report is recomputed and a change of busiest stage is announced
  (``bottleneck_shift`` event), the live signal the paper's
  measure → diagnose → re-place loop (§4.1) needs.

All detections also bump ``repro_watchdog_*`` counters so a scraper
sees them without reading the event stream.

Time comes from the telemetry clock, never from ``time`` directly, so
the same detector runs on wall time in the live runtime and on the
virtual clock inside the simulator (:meth:`Watchdog.sim_process`) with
deterministic thresholds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.obs.events import Event
from repro.obs.profiler import stage_for_thread_name
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim types)
    from repro.sim.engine import Engine
    from repro.sim.engine import Event as SimEvent


@dataclass(frozen=True)
class WatchdogConfig:
    """Detection thresholds, in clock seconds (wall or virtual)."""

    #: seconds between polls.
    interval: float = 0.25
    #: a worker is stalled when its last heartbeat is older than this.
    stall_after: float = 1.0
    #: queue depth that counts as backpressure...
    backpressure_depth: float = 8.0
    #: ...when sustained for at least this long.
    backpressure_after: float = 1.0
    #: an alerted queue re-arms only once depth drops to or below
    #: ``backpressure_clear_ratio * backpressure_depth`` — hysteresis,
    #: so depth oscillating around the threshold can't re-fire the
    #: alert every poll.
    backpressure_clear_ratio: float = 0.5
    #: recompute the bottleneck every N polls (0 disables).
    bottleneck_every: int = 4

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be > 0")
        if self.stall_after <= 0:
            raise ValueError("stall_after must be > 0")
        if not 0 < self.backpressure_clear_ratio <= 1:
            raise ValueError(
                "backpressure_clear_ratio must be in (0, 1]"
            )


class Watchdog:
    """Polls one :class:`~repro.telemetry.Telemetry` for trouble.

    Run it as a daemon thread on the live pipeline (:meth:`start` /
    :meth:`stop`), as a simulated process on the virtual clock
    (:meth:`sim_process`), or drive :meth:`poll` by hand in tests.
    Detected conditions are emitted through ``telemetry.emit_event`` —
    a no-op unless an :class:`~repro.obs.events.EventBus` is attached —
    and always counted in the ``repro_watchdog_*`` families.
    """

    def __init__(
        self, telemetry: Telemetry, config: WatchdogConfig | None = None
    ) -> None:
        self.telemetry = telemetry
        self.config = config or WatchdogConfig()
        registry = telemetry.registry
        self._polls = registry.counter(
            "repro_watchdog_polls_total",
            "Watchdog poll cycles completed",
        )
        self._stalls = registry.counter(
            "repro_watchdog_stalls_total",
            "Stalled-worker detections (heartbeat older than stall_after)",
            ("worker",),
        )
        self._backpressure = registry.counter(
            "repro_watchdog_backpressure_total",
            "Sustained-backpressure detections per queue",
            ("queue",),
        )
        self._shifts = registry.counter(
            "repro_watchdog_bottleneck_shifts_total",
            "Times the busiest stage changed between polls",
        )
        #: worker -> heartbeat ts already alerted on (re-alert only
        #: after a fresh beat stalls again).
        self._alerted: dict[str, float] = {}
        #: queue -> first time seen at/above backpressure_depth.
        self._deep_since: dict[str, float] = {}
        self._deep_alerted: set[str] = set()
        self._last_bottleneck: str | None = None
        self._poll_count = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- detection -------------------------------------------------------

    def poll(self) -> list[Event]:
        """Run one detection cycle; returns the events it emitted."""
        now = self.telemetry.clock.now()
        self._polls.inc()
        self._poll_count += 1
        emitted: list[Event] = []
        emitted.extend(self._check_stalls(now))
        emitted.extend(self._check_backpressure(now))
        every = self.config.bottleneck_every
        if every > 0 and self._poll_count % every == 0:
            emitted.extend(self._check_bottleneck())
        return emitted

    def _emit(
        self, kind: str, message: str, *, severity: str = "info",
        **fields: Any,
    ) -> list[Event]:
        event = self.telemetry.emit_event(
            kind, message, severity=severity, **fields
        )
        return [event] if event is not None else []

    def _check_stalls(self, now: float) -> list[Event]:
        out: list[Event] = []
        for worker, beat in self.telemetry.heartbeats().items():
            age = now - beat
            seen = self._alerted.get(worker)
            if age > self.config.stall_after:
                if seen == beat:
                    continue  # already alerted on this silence
                self._alerted[worker] = beat
                self._stalls.labels(worker=worker).inc()
                out += self._emit(
                    "stage_stall",
                    f"worker {worker!r} silent for {age:.2f}s",
                    severity="warning",
                    worker=worker,
                    stage=stage_for_thread_name(worker),
                    age_s=round(age, 3),
                )
            elif seen is not None:
                del self._alerted[worker]
                out += self._emit(
                    "stall_cleared",
                    f"worker {worker!r} resumed",
                    worker=worker,
                    stage=stage_for_thread_name(worker),
                )
        return out

    def _check_backpressure(self, now: float) -> list[Event]:
        out: list[Event] = []
        family = self.telemetry.registry.get("pipeline_queue_depth")
        if family is None:
            return out
        clear = (
            self.config.backpressure_clear_ratio
            * self.config.backpressure_depth
        )
        for series in family.series():
            queue = series.labels[0] if series.labels else ""
            depth = getattr(series, "value", 0.0)
            if depth >= self.config.backpressure_depth:
                since = self._deep_since.setdefault(queue, now)
                if (
                    queue not in self._deep_alerted
                    and now - since >= self.config.backpressure_after
                ):
                    self._deep_alerted.add(queue)
                    self._backpressure.labels(queue=queue).inc()
                    out += self._emit(
                        "backpressure",
                        f"queue {queue!r} pinned at depth {depth:g} for "
                        f"{now - since:.2f}s",
                        severity="warning",
                        queue=queue,
                        depth=depth,
                    )
            elif depth <= clear:
                # A real drain: forget the alert and re-arm.
                self._deep_since.pop(queue, None)
                self._deep_alerted.discard(queue)
            else:
                # The hysteresis band (clear < depth < threshold): the
                # sustain timer resets, but the alert stays latched so
                # oscillation around the threshold can't re-fire it.
                self._deep_since.pop(queue, None)
        return out

    def _check_bottleneck(self) -> list[Event]:
        bottleneck = self.telemetry.pipeline_report().bottleneck
        if bottleneck is None:
            return []
        previous, self._last_bottleneck = self._last_bottleneck, bottleneck
        if previous is None or previous == bottleneck:
            return []
        self._shifts.inc()
        return self._emit(
            "bottleneck_shift",
            f"bottleneck moved {previous} -> {bottleneck}",
            previous=previous,
            bottleneck=bottleneck,
        )

    # -- live driver (daemon thread) -------------------------------------

    def start(self) -> "Watchdog":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="obs-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval):
            self.poll()

    # -- sim driver (virtual-clock process) ------------------------------

    def sim_process(
        self, engine: "Engine", *, until: float
    ) -> Generator["SimEvent", Any, None]:
        """A generator to register with ``engine.process(...)``.

        Polls every ``config.interval`` virtual seconds and *returns* at
        ``until`` (the scenario horizon).  The bound matters: an
        immortal process would keep the event heap non-empty forever and
        defeat :class:`~repro.core.runtime.SimRuntime`'s deadlock and
        horizon detection.
        """
        while engine.now + self.config.interval <= until:
            yield engine.timeout(self.config.interval)
            self.poll()
