"""Exporters: Prometheus text, Chrome trace_event.

Two consumers, two formats:

- ``prometheus_text`` — the text exposition format scrapers expect
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count`` for
  histograms) so a live run can be scraped or diffed with ``promtool``;
- ``chrome_trace`` — the Trace Event Format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: complete ("X")
  events per span plus thread-name metadata so each core/worker gets
  its own row, and flow arrows ("s"/"f") along each assembled chunk's
  journey.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

from repro.telemetry.assemble import assemble, trace_flows
from repro.telemetry.registry import HistogramSeries, MetricRegistry
from repro.telemetry.spans import Span


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _escape_label(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(v: str) -> str:
    # HELP text escapes only backslash and newline (quotes stay literal).
    return v.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(names: tuple[str, ...], values: tuple[str, ...],
               extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    pairs += [f'{n}="{_escape_label(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(registry: MetricRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for series in family.series():
            labels = _label_str(family.label_names, series.labels)
            if isinstance(series, HistogramSeries):
                cumulative = 0
                for bound, n in zip(
                    (*series.bounds, math.inf), series.bucket_counts
                ):
                    cumulative += n
                    le = _label_str(
                        family.label_names,
                        series.labels,
                        (("le", _fmt_value(bound)),),
                    )
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                lines.append(
                    f"{family.name}_sum{labels} {_fmt_value(series.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {series.count}")
            else:
                lines.append(
                    f"{family.name}{labels} {_fmt_value(series.value)}"
                )
    return "\n".join(lines) + "\n"


def chrome_trace(
    spans: Iterable[Span],
    *,
    time_origin: float | None = None,
) -> dict[str, Any]:
    """Spans as a Chrome/Perfetto ``trace_event`` document.

    Each distinct (stream, track) pair becomes a synthetic thread so
    the viewer lays spans out per core / per worker; timestamps are
    microseconds relative to the earliest span (or ``time_origin``).

    Every chunk that assembles into a multi-span journey
    (:func:`~repro.telemetry.assemble.assemble`) additionally gets a
    flow-event arrow ("s"/"f") per handoff, from the source span's end
    to the destination span's start, which is how a chunk renders as
    one connected chain across thread and process tracks.
    """
    all_spans = sorted(spans, key=lambda s: (s.start, s.end))
    events: list[dict[str, Any]] = []
    if not all_spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = time_origin if time_origin is not None else all_spans[0].start
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    locate: dict[Span, tuple[int, int]] = {}
    for span in all_spans:
        stream = span.stream_id or "pipeline"
        pid = pids.setdefault(stream, len(pids) + 1)
        track = span.track or span.stage
        tid_key = (stream, track)
        tid = tids.get(tid_key)
        if tid is None:
            tid = tids[tid_key] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        locate[span] = (pid, tid)
        events.append(
            {
                "name": span.stage,
                "cat": stream,
                "ph": "X",
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"stream": stream, "chunk": span.chunk_id},
            }
        )
    flows = trace_flows(assemble(all_spans))
    for flow_id, (src, dst) in enumerate(flows, start=1):
        src_loc, dst_loc = locate[src], locate[dst]
        name = f"{src.stream_id or 'pipeline'}#{src.chunk_id}"
        events.append(
            {
                "name": name,
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "ts": (src.end - t0) * 1e6,
                "pid": src_loc[0],
                "tid": src_loc[1],
            }
        )
        events.append(
            {
                "name": name,
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": (dst.start - t0) * 1e6,
                "pid": dst_loc[0],
                "tid": dst_loc[1],
            }
        )
    for stream, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"stream {stream}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str) -> int:
    """Serialize :func:`chrome_trace` to ``path``; returns event count."""
    doc = chrome_trace(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
