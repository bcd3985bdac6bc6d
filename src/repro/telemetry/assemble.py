"""Reassembling per-chunk spans into causal flow traces.

Both substrates record the same :class:`~repro.telemetry.spans.Span`
shape — the live pipeline on the wall clock, the simulator on its
virtual clock — so one assembler serves both: group a chunk's spans,
order them causally, and derive the handoff edges, the latency
waterfall, and the critical path.  The only cross-substrate wrinkle is
naming (the sim calls its first stage ``ingest``, live calls it
``feed``); :func:`canonical_stage` folds that so sim and live traces
are schema-comparable (the parity test relies on it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.telemetry.spans import Span

#: Pipeline stages in causal order, canonical (live) naming.  The
#: primary sort key when assembling a chunk's spans — live stage spans
#: *start* when a worker begins waiting for input, so start times alone
#: are not causal — and the stable order for critical-path reporting.
CANONICAL_STAGES: tuple[str, ...] = (
    "feed", "compress", "send", "wire", "recv", "decompress", "egest",
)

#: Sim stage names → live stage names.
_STAGE_ALIASES = {"ingest": "feed"}

#: Receiver-plane deferral marker; bookkeeping, not pipeline work.
DEFER_STAGE = "defer"


def canonical_stage(stage: str) -> str:
    """Fold substrate-specific stage names onto the live naming."""
    return _STAGE_ALIASES.get(stage, stage)


def stage_rank(stage: str) -> int:
    """Position in pipeline order; stages it does not name rank last."""
    try:
        return CANONICAL_STAGES.index(canonical_stage(stage))
    except ValueError:
        return len(CANONICAL_STAGES)


@dataclass(frozen=True)
class Handoff:
    """One queue/ring/wire edge between consecutive stages of a chunk.

    ``wait`` is the gap between the source span's end and the
    destination span's start — time the chunk sat in a queue, a ring
    slot, or a socket buffer, clamped at zero when stages overlap
    (the wire span overlaps the send syscall by construction).
    """

    src: str
    dst: str
    wait: float


@dataclass(frozen=True)
class ChunkTrace:
    """One chunk's assembled end-to-end journey."""

    stream_id: str
    chunk_id: int
    spans: tuple[Span, ...]
    handoffs: tuple[Handoff, ...]

    @property
    def start(self) -> float:
        return self.spans[0].start

    @property
    def end(self) -> float:
        return max(s.end for s in self.spans)

    @property
    def total(self) -> float:
        """End-to-end residence time of the chunk in the pipeline."""
        return self.end - self.start

    def stage_order(self) -> tuple[str, ...]:
        """Canonical stage names in causal order, duplicates collapsed,
        deferral markers dropped — the trace's *topology* signature."""
        order: list[str] = []
        for span in self.spans:
            stage = canonical_stage(span.stage)
            if stage == DEFER_STAGE:
                continue
            if not order or order[-1] != stage:
                order.append(stage)
        return tuple(order)

    def edges(self) -> tuple[tuple[str, str], ...]:
        """The handoff edges as (src, dst) canonical stage pairs."""
        return tuple((h.src, h.dst) for h in self.handoffs)

    def stage_work(self) -> dict[str, float]:
        """Seconds of stage work per canonical stage (wire included)."""
        work: dict[str, float] = {}
        for span in self.spans:
            stage = canonical_stage(span.stage)
            if stage == DEFER_STAGE:
                continue
            work[stage] = work.get(stage, 0.0) + span.duration
        return work

    def waterfall(self) -> dict[str, float]:
        """The latency decomposition of this chunk's journey.

        Four categories: ``stage_work`` (CPU stages), ``wire`` (frame
        in flight, sender stamp to receiver arrival), ``queue_wait``
        (handoff gaps), ``deferral`` (receiver-plane budget/backlog
        deferrals).  Categories may overlap in wall time — the wire
        span starts inside the send syscall — so they decompose the
        journey by *cause*, not into disjoint intervals.
        """
        work = 0.0
        wire = 0.0
        deferral = 0.0
        for span in self.spans:
            stage = canonical_stage(span.stage)
            if stage == "wire":
                wire += span.duration
            elif stage == DEFER_STAGE:
                deferral += span.duration
            else:
                work += span.duration
        queue_wait = sum(h.wait for h in self.handoffs)
        return {
            "stage_work": work,
            "wire": wire,
            "queue_wait": queue_wait,
            "deferral": deferral,
            "total": self.total,
        }

    def stage_costs(self) -> dict[str, float]:
        """Work plus incoming handoff wait, attributed per stage — the
        quantity the critical-path analyzer ranks."""
        costs = self.stage_work()
        for handoff in self.handoffs:
            costs[handoff.dst] = costs.get(handoff.dst, 0.0) + handoff.wait
        return costs

    def critical_stage(self) -> str:
        """The stage this chunk spent the most time in (work + wait)."""
        costs = self.stage_costs()
        return max(costs, key=lambda s: (costs[s], -stage_rank(s)))

    def to_dict(self) -> dict[str, Any]:
        return {
            "stream": self.stream_id,
            "chunk": self.chunk_id,
            "start": self.start,
            "end": self.end,
            "total": self.total,
            "spans": [
                {
                    "stage": canonical_stage(s.stage),
                    "track": s.track,
                    "start": s.start,
                    "end": s.end,
                    "duration": s.duration,
                }
                for s in self.spans
            ],
            "handoffs": [
                {"src": h.src, "dst": h.dst, "wait": h.wait}
                for h in self.handoffs
            ],
            "waterfall": self.waterfall(),
            "critical_stage": self.critical_stage(),
        }


def _handoff_pairs(spans: Iterable[Span]) -> list[tuple[Span, Span]]:
    """(source, destination) spans of each handoff in a causally
    ordered chain; deferral markers are not pipeline steps."""
    steps = [s for s in spans if canonical_stage(s.stage) != DEFER_STAGE]
    return list(zip(steps, steps[1:]))


def trace_flows(traces: Iterable[ChunkTrace]) -> list[tuple[Span, Span]]:
    """The span pairs of every handoff: the arrows
    :func:`~repro.telemetry.export.chrome_trace` draws."""
    return [pair for t in traces for pair in _handoff_pairs(t.spans)]


def assemble(spans: Iterable[Span]) -> list[ChunkTrace]:
    """Group per-chunk spans into :class:`ChunkTrace` objects.

    Only spans with a concrete chunk identity participate (anonymous
    spans — heartbeats, batch flushes — have ``chunk_id == -1``).
    Spans are ordered by canonical stage rank with start time as the
    tie-break: live stage spans begin when a worker starts *waiting*
    (a receiver's span can open before the chunk was even compressed),
    so the pipeline topology, not the start stamp, is the causal order.
    The start tie-break sequences repeated spans of one stage, and the
    sim's zero-width virtual-clock ties come out in pipeline order too.
    """
    groups: dict[tuple[str, int], list[Span]] = {}
    for span in spans:
        if not span.stream_id or span.chunk_id < 0:
            continue
        groups.setdefault((span.stream_id, span.chunk_id), []).append(span)
    traces: list[ChunkTrace] = []
    for (stream_id, chunk_id), group in sorted(groups.items()):
        group.sort(key=lambda s: (stage_rank(s.stage), s.start, s.end))
        handoffs = tuple(
            Handoff(
                src=canonical_stage(src.stage),
                dst=canonical_stage(dst.stage),
                wait=max(0.0, dst.start - src.end),
            )
            for src, dst in _handoff_pairs(group)
        )
        traces.append(ChunkTrace(stream_id, chunk_id, tuple(group), handoffs))
    return traces


@dataclass(frozen=True)
class CriticalPath:
    """Per-stream verdict: the binding stage and its share of cost."""

    stream_id: str
    stage: str
    seconds: float
    #: Fraction of the stream's total attributed cost in the binding
    #: stage — 1/len(stages) means flat, ~1.0 means one hot stage.
    share: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "stream": self.stream_id,
            "stage": self.stage,
            "seconds": self.seconds,
            "share": self.share,
        }


def critical_path(traces: Iterable[ChunkTrace]) -> dict[str, CriticalPath]:
    """Name the binding stage per stream across assembled traces.

    This is the direct per-chunk signal that queue-depth gauges only
    hint at: the stage where sampled chunks actually spend their time,
    waits attributed to the stage they precede.
    """
    costs: dict[str, dict[str, float]] = {}
    for trace in traces:
        per_stream = costs.setdefault(trace.stream_id, {})
        for stage, cost in trace.stage_costs().items():
            per_stream[stage] = per_stream.get(stage, 0.0) + cost
    verdicts: dict[str, CriticalPath] = {}
    for stream_id, per_stage in costs.items():
        total = sum(per_stage.values())
        stage = max(per_stage, key=lambda s: (per_stage[s], -stage_rank(s)))
        verdicts[stream_id] = CriticalPath(
            stream_id=stream_id,
            stage=stage,
            seconds=per_stage[stage],
            share=(per_stage[stage] / total) if total > 0 else 0.0,
        )
    return verdicts


class ClockAlign:
    """Sender/receiver clock alignment from traced-frame timestamps.

    Every traced frame carries the sender's wall clock in its trailer;
    the receiver stamps arrival on its own clock.  The minimum observed
    delta ``received - sent`` bounds *clock offset + minimum one-way
    latency* from above — the standard one-way estimate when clocks
    are independent.  On a loopback pipeline both stamps come from one
    clock, so the bound collapses to the genuine minimum wire latency.
    Thread-safe: receiver shards share one instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._min_delta: float | None = None
        self._samples = 0

    def observe(self, sent_at: float, received_at: float) -> None:
        delta = received_at - sent_at
        with self._lock:
            self._samples += 1
            if self._min_delta is None or delta < self._min_delta:
                self._min_delta = delta

    @property
    def samples(self) -> int:
        return self._samples

    @property
    def offset_bound(self) -> float:
        """Upper bound on the sender→receiver clock offset (seconds)."""
        with self._lock:
            return self._min_delta if self._min_delta is not None else 0.0

    def align(self, sender_ts: float) -> float:
        """Map a sender-clock stamp onto the receiver's timeline."""
        return sender_ts + self.offset_bound


def trace_summary(
    spans: Iterable[Span],
    *,
    align: ClockAlign | None = None,
    limit: int = 0,
) -> dict[str, Any]:
    """The ``/trace`` endpoint document: assembled traces + verdicts."""
    traces = assemble(spans)
    verdicts = critical_path(traces)
    shown = traces if limit <= 0 else traces[-limit:]
    return {
        "count": len(traces),
        "traces": [t.to_dict() for t in shown],
        "critical_path": {
            stream: v.to_dict() for stream, v in sorted(verdicts.items())
        },
        "clock": {
            "offset_bound": align.offset_bound if align is not None else 0.0,
            "samples": align.samples if align is not None else 0,
        },
    }
