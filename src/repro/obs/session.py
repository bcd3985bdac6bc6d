"""One observation session: set-up order and teardown for either substrate.

``repro live`` and ``repro run`` watch their run the same way — an
event bus fed by telemetry and the ``repro`` logger, a watchdog, the
sampling profiler, the HTTP endpoints.
:func:`observe` owns the order those come up in and guarantees, in a
``finally``, that every thread, socket, log handler and open sink is
gone again whatever the run raised.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Literal

from repro.obs.events import EventBus
from repro.obs.profiler import SamplingProfiler
from repro.obs.server import ObservabilityServer
from repro.obs.watchdog import Watchdog, WatchdogConfig
from repro.util.log import attach_event_bus, detach_event_bus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.facade import Telemetry

#: Coarser than the live defaults: these are *virtual* seconds, and
#: every bottleneck check walks the span store.
SIM_WATCHDOG = WatchdogConfig(
    interval=1.0, stall_after=5.0, backpressure_after=2.0, bottleneck_every=10
)


@dataclass
class Observation:
    """The handles a running session gives its caller."""

    bus: EventBus | None = None
    server: ObservabilityServer | None = None
    profiler: SamplingProfiler | None = None
    #: Sim only: the virtual-clock watchdog ``SimRuntime`` should run.
    watchdog_config: WatchdogConfig | None = None


@contextmanager
def observe(
    telemetry: "Telemetry",
    substrate: Literal["live", "sim"],
    *,
    port: int | None = None,
    events_out: str | None = None,
    profile: bool = False,
) -> Iterator[Observation]:
    """Bring up what was asked for, yield the handles, tear it all down.

    The event bus (and with it the watchdog) exists when anything reads
    events: the HTTP server or the JSONL sink.
    """
    obs = Observation()
    handler = None
    watchdog = None
    try:
        if port is not None or events_out:
            obs.bus = EventBus(source=substrate, jsonl_path=events_out)
            telemetry.attach_events(obs.bus)
            handler = attach_event_bus(obs.bus)
            if substrate == "live":
                watchdog = Watchdog(telemetry).start()
            else:
                obs.watchdog_config = SIM_WATCHDOG
        if profile:
            obs.profiler = SamplingProfiler().start()
        if port is not None:
            obs.server = ObservabilityServer(
                telemetry, port=port, events=obs.bus, profiler=obs.profiler
            )
            obs.server.start()
        yield obs
    finally:
        if watchdog is not None:
            watchdog.stop()
        if obs.profiler is not None:
            obs.profiler.stop()
        if obs.server is not None:
            obs.server.mark_finished()
            obs.server.stop()
        if handler is not None:
            detach_event_bus(handler)
        if obs.bus is not None:
            obs.bus.close()
