"""repro.obs — the live observability plane.

Layered on :mod:`repro.telemetry` (which *collects*), this package
*serves and watches*: HTTP endpoints for scrapers and supervisors, a
structured event timeline shared by both substrates, a watchdog that
turns heartbeats and queue gauges into alerts, a stage-attributed
sampling profiler, and the ``repro top`` dashboard.  See
``docs/observability.md``.
"""

from repro.obs.events import (
    EVENT_KINDS,
    SEVERITIES,
    Event,
    EventBus,
    EventLogHandler,
    severity_for_level,
)
from repro.obs.profiler import SamplingProfiler, stage_for_thread_name
from repro.obs.promparse import (
    Family,
    ParseError,
    Sample,
    label_values,
    parse_prometheus_text,
    sample_value,
)
from repro.obs.server import PROM_CONTENT_TYPE, ObservabilityServer
from repro.obs.top import Dashboard, fetch_sample
from repro.obs.watchdog import Watchdog, WatchdogConfig

__all__ = [
    "EVENT_KINDS",
    "SEVERITIES",
    "Event",
    "EventBus",
    "EventLogHandler",
    "severity_for_level",
    "SamplingProfiler",
    "stage_for_thread_name",
    "Family",
    "ParseError",
    "Sample",
    "label_values",
    "parse_prometheus_text",
    "sample_value",
    "PROM_CONTENT_TYPE",
    "ObservabilityServer",
    "Dashboard",
    "fetch_sample",
    "Watchdog",
    "WatchdogConfig",
]
