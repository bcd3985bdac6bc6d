"""repro.telemetry — unified metrics + span tracing for sim and live runs.

The observability layer the paper's workflow needs (measure → diagnose
the bottleneck stage → re-place threads, §4.1), shared by both execution
substrates:

- :class:`MetricRegistry` — labeled :class:`Counter
  <repro.telemetry.registry.CounterSeries>` / gauge / histogram series
  with thread-safe updates;
- :class:`SpanStore` / :func:`stage_span` — per-chunk stage spans on a
  pluggable :class:`Clock` (wall time live, virtual time in the sim);
- :class:`HeadSampler` / :func:`assemble` — which chunks are followed
  across threads, processes and the wire, and their spans folded into
  one :class:`ChunkTrace` per chunk: the causal order, the handoff
  waits, the waterfall and the critical-path verdict that the report,
  the export and ``/trace`` all read (``docs/tracing.md``);
- exporters — Prometheus text and Chrome ``trace_event`` with flow
  arrows (open in ``chrome://tracing`` or Perfetto);
- :class:`PipelineReport` — per-stage service time, queue wait and the
  bottleneck stage, derived identically for sim and live traces.

Most call sites only need :class:`Telemetry`, the facade bundling all
of the above.  See ``docs/telemetry.md``.
"""

from repro.telemetry.assemble import (
    CANONICAL_STAGES,
    ChunkTrace,
    ClockAlign,
    Handoff,
    assemble,
    canonical_stage,
    critical_path,
    trace_flows,
    trace_summary,
)
from repro.telemetry.clock import Clock, SimClock, WallClock
from repro.telemetry.context import HeadSampler, TraceContext
from repro.telemetry.export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.telemetry.facade import Telemetry, as_telemetry
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricFamily,
    MetricRegistry,
)
from repro.telemetry.report import PipelineReport, StageAggregate
from repro.telemetry.spans import ActiveSpan, Span, SpanStore, stage_span

__all__ = [
    "ActiveSpan",
    "CANONICAL_STAGES",
    "ChunkTrace",
    "Clock",
    "ClockAlign",
    "CounterSeries",
    "DEFAULT_BUCKETS",
    "GaugeSeries",
    "Handoff",
    "HeadSampler",
    "HistogramSeries",
    "MetricFamily",
    "MetricRegistry",
    "PipelineReport",
    "SimClock",
    "Span",
    "SpanStore",
    "StageAggregate",
    "Telemetry",
    "TraceContext",
    "WallClock",
    "as_telemetry",
    "assemble",
    "canonical_stage",
    "chrome_trace",
    "critical_path",
    "prometheus_text",
    "stage_span",
    "trace_flows",
    "trace_summary",
    "write_chrome_trace",
]
