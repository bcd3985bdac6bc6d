"""Derive pipeline diagnostics from spans: service, queue wait, bottleneck.

This is the paper's *measure → diagnose → re-place* loop's "diagnose"
step (§4.1), computed identically for both substrates: read per-stage
service time directly off the spans, take *queue wait* from the
handoffs of each chunk's assembled journey
(:func:`~repro.telemetry.assemble.assemble` — the gap between the
previous stage finishing a chunk and the next one starting it, in
pipeline order, booked to the stage the chunk waited for), then pick
the bottleneck as the stage whose threads are busiest
(busy_seconds / (threads × makespan)).  The simulator records its
spans into the same store, so a simulated trace and a live trace answer
the bottleneck question through one code path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.telemetry.assemble import assemble, canonical_stage, stage_rank
from repro.telemetry.spans import Span
from repro.util.timeseries import WindowStats


@dataclass
class StageAggregate:
    """Aggregated timing for one pipeline stage."""

    service: WindowStats = field(default_factory=WindowStats)
    queue_wait: WindowStats = field(default_factory=WindowStats)
    busy_seconds: float = 0.0
    chunks: int = 0


@dataclass
class PipelineReport:
    """Per-stage statistics and the bottleneck verdict for one stream."""

    stream_id: str
    stages: dict[str, StageAggregate]
    #: stage -> thread count used for per-thread utilization (default 1).
    thread_counts: dict[str, int]
    #: first-start to last-end across every span considered.
    makespan: float
    #: stage -> sampled self-time seconds, merged in by the observability
    #: plane when a :class:`~repro.obs.profiler.SamplingProfiler` ran.
    profile: dict[str, float] | None = None

    @classmethod
    def from_spans(
        cls,
        spans: Iterable[Span],
        *,
        stream_id: str | None = None,
        thread_counts: Mapping[str, int] | None = None,
    ) -> "PipelineReport":
        """Build a report from raw spans.

        With ``stream_id`` given only that stream's spans are used;
        otherwise all spans are pooled (useful for single-stream live
        runs where every chunk shares one stream id anyway).
        """
        selected = [
            s for s in spans if stream_id is None or s.stream_id == stream_id
        ]
        stages: dict[str, StageAggregate] = defaultdict(StageAggregate)
        for span in selected:
            agg = stages[span.stage]
            agg.service.add(span.duration)
            agg.busy_seconds += span.duration
            agg.chunks += 1
        # Handoffs name stages canonically; rows keep the substrate's.
        named = {canonical_stage(stage): stage for stage in stages}
        for trace in assemble(selected):
            for handoff in trace.handoffs:
                stages[named[handoff.dst]].queue_wait.add(handoff.wait)
        makespan = 0.0
        if selected:
            t0 = min(s.start for s in selected)
            t1 = max(s.end for s in selected)
            makespan = max(t1 - t0, 0.0)
        return cls(
            stream_id=stream_id or "",
            stages=dict(sorted(stages.items(), key=lambda kv: stage_rank(kv[0]))),
            thread_counts=dict(thread_counts or {}),
            makespan=makespan,
        )

    # -- diagnosis -------------------------------------------------------

    def stage_utilization(self) -> dict[str, float]:
        """Busy fraction per stage: busy_seconds / (threads × makespan)."""
        span = max(self.makespan, 1e-12)
        return {
            stage: agg.busy_seconds / (self.thread_counts.get(stage, 1) * span)
            for stage, agg in self.stages.items()
        }

    @property
    def bottleneck(self) -> str | None:
        """The stage whose threads are busiest, or None without spans."""
        util = self.stage_utilization()
        if not util:
            return None
        return max(util.items(), key=lambda kv: kv[1])[0]

    def to_dict(self) -> dict[str, object]:
        """JSON shape served by the observability plane's ``/report``."""
        util = self.stage_utilization()
        stages: dict[str, object] = {}
        for stage, agg in self.stages.items():
            stages[stage] = {
                "threads": self.thread_counts.get(stage, 1),
                "chunks": agg.chunks,
                "service_mean_s": agg.service.mean if agg.chunks else 0.0,
                "queue_wait_mean_s": (
                    agg.queue_wait.mean if agg.queue_wait.n else 0.0
                ),
                "busy_seconds": agg.busy_seconds,
                "utilization": util.get(stage, 0.0),
            }
        out: dict[str, object] = {
            "stream_id": self.stream_id,
            "makespan_s": self.makespan,
            "stages": stages,
            "stage_utilization": util,
            "bottleneck": self.bottleneck,
        }
        if self.profile is not None:
            out["profile"] = dict(self.profile)
        return out

    def render(self) -> str:
        """Human-readable per-stage table (printed by ``repro run`` / ``repro live``)."""
        title = f"stream {self.stream_id!r}" if self.stream_id else "pipeline"
        lines = [f"telemetry report for {title}:"]
        lines.append(
            f"  {'stage':<12} {'thr':>4} {'chunks':>6} {'service(ms)':>12} "
            f"{'q-wait(ms)':>11} {'busy(s)':>8} {'util':>5}"
        )
        util = self.stage_utilization()
        for stage, agg in self.stages.items():
            service_ms = agg.service.mean * 1e3 if agg.chunks else 0.0
            wait_ms = agg.queue_wait.mean * 1e3 if agg.queue_wait.n else 0.0
            lines.append(
                f"  {stage:<12} {self.thread_counts.get(stage, 1):>4} "
                f"{agg.chunks:>6} {service_ms:>12.2f} {wait_ms:>11.2f} "
                f"{agg.busy_seconds:>8.2f} {util.get(stage, 0.0):>5.2f}"
            )
        bn = self.bottleneck
        if bn:
            lines.append(f"  bottleneck stage: {bn}")
        if self.profile:
            ranked = sorted(
                self.profile.items(), key=lambda kv: kv[1], reverse=True
            )
            lines.append(
                "  sampled self-time: "
                + ", ".join(f"{s}={v:.2f}s" for s, v in ranked)
            )
        return "\n".join(lines)
