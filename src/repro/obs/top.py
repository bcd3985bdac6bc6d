"""``repro top``: a live ANSI dashboard over the observability plane.

Polls a running pipeline's :class:`~repro.obs.server.ObservabilityServer`
(``/metrics`` + ``/report`` + ``/healthz`` + ``/events``) and redraws a
single terminal frame — per-stage throughput (chunks/s from counter
deltas between polls), queue depths, mean batch sizes, worker health
and the current bottleneck verdict.  Curses-free on purpose: plain ANSI
escape codes work over ssh, in CI logs (``--once`` prints one frame and
exits, no cursor tricks), and in the paper-reproduction workflow where
the interesting run is usually on another machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.obs.promparse import (
    Family,
    label_values,
    parse_prometheus_text,
    sample_value,
)
from repro.telemetry.assemble import stage_rank

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def _fetch(url: str, timeout: float) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return bytes(resp.read())


def fetch_sample(base_url: str, *, timeout: float = 2.0) -> dict[str, Any]:
    """One poll of all five endpoints, as parsed payloads."""
    base = base_url.rstrip("/")
    metrics = parse_prometheus_text(
        _fetch(f"{base}/metrics", timeout).decode("utf-8")
    )
    report = json.loads(_fetch(f"{base}/report", timeout))
    try:
        health = json.loads(_fetch(f"{base}/healthz", timeout))
    except urllib.error.HTTPError as exc:  # 503 still carries the body
        health = json.loads(exc.read())
    events = json.loads(_fetch(f"{base}/events?n=5", timeout))
    trace = json.loads(_fetch(f"{base}/trace?n=3", timeout))
    return {
        "metrics": metrics,
        "report": report,
        "health": health,
        "events": events,
        "trace": trace,
    }


def _stage_chunks(families: Mapping[str, Family]) -> dict[str, float]:
    """Total chunks per stage, summed across streams."""
    fam = families.get("pipeline_chunks_total")
    totals: dict[str, float] = {}
    if fam is None:
        return totals
    for s in fam.samples:
        stage = s.labels.get("stage", "")
        totals[stage] = totals.get(stage, 0.0) + s.value
    return totals


def _ordered(stages: Mapping[str, Any]) -> list[str]:
    """Pipeline order (families may carry any subset), strangers last."""
    return sorted(stages, key=lambda s: (stage_rank(s), s))


class Dashboard:
    """Renders frames and tracks counter deltas between polls."""

    def __init__(self, *, color: bool = True) -> None:
        self.color = color
        self._prev_chunks: dict[str, float] | None = None
        self._prev_when: float | None = None

    def _c(self, code: str, text: str) -> str:
        return f"{code}{text}{_RESET}" if self.color else text

    def frame(self, sample: Mapping[str, Any], *, now: float) -> str:
        """One rendered frame (no cursor control — caller clears)."""
        families: dict[str, Family] = sample["metrics"]
        report: Mapping[str, Any] = sample["report"]
        health: Mapping[str, Any] = sample["health"]
        events: Mapping[str, Any] = sample["events"]

        chunks = _stage_chunks(families)
        rates: dict[str, float] = {}
        if self._prev_chunks is not None and self._prev_when is not None:
            dt = max(now - self._prev_when, 1e-9)
            for stage, total in chunks.items():
                rates[stage] = max(
                    0.0, (total - self._prev_chunks.get(stage, 0.0)) / dt
                )
        self._prev_chunks, self._prev_when = dict(chunks), now

        depths = label_values(families, "pipeline_queue_depth", "queue")
        bottleneck = report.get("bottleneck") or "-"
        util = report.get("stage_utilization", {})
        profile = report.get("profile") or {}

        healthy = bool(health.get("healthy", True))
        status = health.get("status", "?")
        badge = self._c(_GREEN if healthy else _RED, status.upper())
        lines = [
            self._c(_BOLD, "repro top")
            + f"  health={badge}  bottleneck="
            + self._c(_YELLOW, str(bottleneck))
            + f"  retries={sample_value(families, 'transport_retries_total'):g}"
            + "  watchdog_stalls="
            + f"{_family_total(families, 'repro_watchdog_stalls_total'):g}",
            "",
            f"  {'stage':<12} {'chunks':>8} {'rate/s':>8} {'util':>5} "
            f"{'prof(s)':>8}",
        ]
        for stage in _ordered(chunks):
            lines.append(
                f"  {stage:<12} {chunks.get(stage, 0.0):>8g} "
                f"{rates.get(stage, 0.0):>8.1f} "
                f"{util.get(stage, 0.0):>5.2f} "
                f"{profile.get(stage, 0.0):>8.2f}"
            )
        if depths:
            lines.append("")
            lines.append(f"  {'queue':<24} {'depth':>6}")
            for queue in sorted(depths):
                depth = depths[queue]
                mark = self._c(_RED, f"{depth:>6g}") if depth >= 8 \
                    else f"{depth:>6g}"
                lines.append(f"  {queue:<24} {mark}")
        stale = health.get("stale_workers") or []
        if stale:
            lines.append("")
            lines.append(
                self._c(_RED, f"  stalled workers: {', '.join(stale)}")
            )
        recent = events.get("events") or []
        if recent:
            lines.append("")
            lines.append(self._c(_BOLD, "  recent events"))
            for ev in recent[-5:]:
                lines.append(
                    self._c(
                        _DIM,
                        f"  [{ev.get('ts', 0):.2f}] {ev.get('kind')}: "
                        f"{ev.get('message', '')}",
                    )
                )
        trace: Mapping[str, Any] = sample.get("trace") or {}
        lines.extend(self._trace_pane(trace))
        return "\n".join(lines)

    def _trace_pane(self, trace: Mapping[str, Any]) -> list[str]:
        """The flow-trace pane: latest sampled chunks' waterfalls and
        the per-stream critical-path verdicts."""
        traces = trace.get("traces") or []
        verdicts = trace.get("critical_path") or {}
        if not traces and not verdicts:
            return []
        lines = ["", self._c(_BOLD, "  flow traces")
                 + self._c(_DIM, f"  ({trace.get('count', 0)} assembled)")]
        for t in traces[-3:]:
            wf = t.get("waterfall") or {}
            path = "→".join(
                s.get("stage", "?") for s in (t.get("spans") or [])
            )
            lines.append(
                f"  {t.get('stream', '?')}#{t.get('chunk', '?'):<6} "
                f"{path}"
            )
            lines.append(
                self._c(
                    _DIM,
                    f"    total={wf.get('total', 0.0) * 1e3:.2f}ms "
                    f"work={wf.get('stage_work', 0.0) * 1e3:.2f} "
                    f"wire={wf.get('wire', 0.0) * 1e3:.2f} "
                    f"wait={wf.get('queue_wait', 0.0) * 1e3:.2f} "
                    f"defer={wf.get('deferral', 0.0) * 1e3:.2f} "
                    f"critical={t.get('critical_stage', '-')}",
                )
            )
        for stream in sorted(verdicts):
            v = verdicts[stream]
            lines.append(
                "  critical path "
                + self._c(_YELLOW, f"{stream}: {v.get('stage', '-')}")
                + self._c(
                    _DIM,
                    f" ({v.get('seconds', 0.0) * 1e3:.1f}ms, "
                    f"{v.get('share', 0.0) * 100:.0f}% of cost)",
                )
            )
        return lines


def _family_total(families: Mapping[str, Family], name: str) -> float:
    fam = families.get(name)
    if fam is None:
        return 0.0
    return sum(s.value for s in fam.samples)


def add_top_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare ``repro top``'s arguments on ``parser``."""
    parser.add_argument(
        "url",
        nargs="?",
        default="http://127.0.0.1:9100",
        help="observability server base URL (default %(default)s)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="poll period in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (CI-friendly)",
    )
    parser.add_argument(
        "--no-color", action="store_true", help="disable ANSI colors"
    )


def run_top(args: argparse.Namespace) -> int:
    """Poll ``args.url`` and redraw until interrupted (or ``--once``)."""
    dash = Dashboard(color=not args.no_color and sys.stdout.isatty())
    while True:
        try:
            sample = fetch_sample(args.url, timeout=max(args.interval, 2.0))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"repro top: cannot poll {args.url}: {exc}",
                  file=sys.stderr)
            return 1
        frame = dash.frame(sample, now=time.monotonic())
        if args.once:
            print(frame)
            return 0
        sys.stdout.write(_CLEAR + frame + "\n")
        sys.stdout.flush()
        time.sleep(args.interval)
