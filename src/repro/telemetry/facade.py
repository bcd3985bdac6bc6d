"""The `Telemetry` facade: one object both substrates write into.

It bundles a :class:`~repro.telemetry.registry.MetricRegistry`, a
:class:`~repro.telemetry.spans.SpanStore` and a pluggable clock, and
pre-registers the *canonical pipeline metric families* so the simulator
and the live runtime report through identical names:

====================================  =========  ==========================
family                                type       labels
====================================  =========  ==========================
``pipeline_chunks_total``             counter    stage, stream
``pipeline_bytes_total``              counter    stage, stream
``pipeline_stage_seconds``            histogram  stage
``pipeline_queue_depth``              gauge      queue
``pipeline_batch_size``               histogram  site
``transport_frames_total``            counter    direction
``transport_bytes_total``             counter    direction
``transport_retries_total``           counter    —
``transport_redeliveries_total``      counter    —
``transport_frames_rejected_total``   counter    —
``transport_frames_deduped_total``    counter    —
``transport_faults_injected_total``   counter    kind
``repro_receiver_deferred_total``     counter    stream
``repro_spans_dropped_total``         counter    —
====================================  =========  ==========================

The per-stream family that grows with tenant count
(``repro_receiver_deferred_total``) is cardinality-capped: after
``stream_label_top_k`` distinct streams, further streams fold onto
``stream="_other"``.  The span store is likewise bounded (drop-oldest)
with evictions counted in ``repro_spans_dropped_total``.

The ``transport_retries/redeliveries/rejected/deduped`` family is the
resilience ledger (``repro.faults`` + the resilient live endpoints);
the simulator bumps the same counters for ``crash``/``reconnect``
faults so sim and live chaos runs read identically.

The sim-vs-live parity test in ``tests/integration`` holds the two
substrates to this contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.telemetry.assemble import ClockAlign
from repro.telemetry.clock import Clock, WallClock

if TYPE_CHECKING:  # pragma: no cover - avoid a runtime telemetry->obs cycle
    from repro.obs.events import Event, EventBus
from repro.telemetry.export import (
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)
from repro.telemetry.registry import GaugeSeries, MetricRegistry
from repro.telemetry.report import PipelineReport
from repro.telemetry.spans import ActiveSpan, Span, SpanStore
from repro.util.errors import ValidationError


#: Default per-stream label budget for high-cardinality families.
#: Generous for benchmarks and typical runs; a 1k-tenant deployment
#: folds the tail onto ``stream="_other"`` instead of growing the
#: registry without bound.
DEFAULT_STREAM_LABEL_TOP_K = 256


class Telemetry:
    """Metrics + spans for one pipeline run (sim or live)."""

    def __init__(
        self,
        clock: Clock | None = None,
        *,
        max_spans: int | None = None,
        stream_label_top_k: int = DEFAULT_STREAM_LABEL_TOP_K,
    ) -> None:
        self.clock: Clock = clock or WallClock()
        self.registry = MetricRegistry()
        self._spans_dropped = self.registry.counter(
            "repro_spans_dropped_total",
            "Spans evicted from the bounded span store (drop-oldest)",
        )
        span_kwargs: dict[str, Any] = {"on_drop": self._spans_dropped.inc}
        if max_spans is not None:
            span_kwargs["max_spans"] = max_spans
        self.spans = SpanStore(clock=self.clock, **span_kwargs)
        #: Sender/receiver clock alignment fed by traced frames;
        #: always present, costs nothing unused.
        self.trace_align = ClockAlign()
        #: stage -> thread count, for per-thread bottleneck utilization.
        self.thread_counts: dict[str, int] = {}
        #: stream -> its own {stage -> thread count} (the simulator's
        #: multi-stream scenarios); without an entry, the run-wide dict.
        self.stream_thread_counts: dict[str, dict[str, int]] = {}
        #: Optional structured-event bus (see :mod:`repro.obs.events`);
        #: attached by the observability plane, never required.
        self.events: "EventBus | None" = None
        self._chunks = self.registry.counter(
            "pipeline_chunks_total",
            "Chunks completed per pipeline stage",
            ("stage", "stream"),
        )
        self._bytes = self.registry.counter(
            "pipeline_bytes_total",
            "Uncompressed payload bytes processed per pipeline stage",
            ("stage", "stream"),
        )
        self._stage_seconds = self.registry.histogram(
            "pipeline_stage_seconds",
            "Per-chunk service time per pipeline stage",
            ("stage",),
        )
        self._queue_depth = self.registry.gauge(
            "pipeline_queue_depth",
            "Inter-stage queue occupancy",
            ("queue",),
        )
        self._batch_size = self.registry.histogram(
            "pipeline_batch_size",
            "Items moved per batched queue drain / vectored send",
            ("site",),
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._frames = self.registry.counter(
            "transport_frames_total",
            "Frames moved over the transport",
            ("direction",),
        )
        self._tbytes = self.registry.counter(
            "transport_bytes_total",
            "Wire bytes moved over the transport",
            ("direction",),
        )
        self._retries = self.registry.counter(
            "transport_retries_total",
            "Reconnect attempts made after a transport failure",
        )
        self._redeliveries = self.registry.counter(
            "transport_redeliveries_total",
            "Frames re-sent after a reconnect (unacknowledged replay)",
        )
        self._rejected = self.registry.counter(
            "transport_frames_rejected_total",
            "Frames the receiver rejected for integrity failures",
        )
        self._deduped = self.registry.counter(
            "transport_frames_deduped_total",
            "Duplicate frames the receiver dropped after a retransmit",
        )
        self._faults = self.registry.counter(
            "transport_faults_injected_total",
            "Faults fired by the attached FaultInjector",
            ("kind",),
        )
        self._deferred = self.registry.counter(
            "repro_receiver_deferred_total",
            "Read deferrals by the event-loop receiver (per-stream "
            "in-flight budget exceeded, or the decompress queue full)",
            ("stream",),
        )
        # The per-stream family that scales with tenant count is capped:
        # past top-K distinct streams, increments fold onto
        # stream="_other" (see MetricFamily.limit_cardinality).
        if stream_label_top_k > 0:
            self._deferred.limit_cardinality("stream", stream_label_top_k)
        self._heartbeats = self.registry.gauge(
            "worker_heartbeat_seconds",
            "Per-worker liveness: clock time of the last completed span",
            ("worker",),
        )
        self._affinity = self.registry.gauge(
            "repro_affinity_cpus",
            "CPUs actually applied to a pinned worker (0 = unpinned)",
            ("role",),
        )

    def set_clock(self, clock: Clock) -> None:
        """Rebind the time source (the sim engine exists after __init__)."""
        self.clock = clock
        self.spans.clock = clock

    # -- spans -----------------------------------------------------------

    def span(
        self,
        stage: str,
        *,
        stream_id: str = "",
        chunk_id: int = -1,
        track: str | None = None,
    ) -> ActiveSpan:
        """Time a block; records the span and the stage-seconds sample."""
        return ActiveSpan(self, stage, stream_id, chunk_id, track)

    def _close(self, span: ActiveSpan) -> None:
        self.spans._close(span)
        # A discarded span (end-of-stream marker) still proves liveness.
        if span.track is not None:
            self.heartbeat(span.track, ts=span.end)
        if not span.discard:
            self._stage_seconds.labels(stage=span.stage).observe(span.duration)

    def record_span(
        self,
        stage: str,
        start: float,
        end: float,
        *,
        stream_id: str = "",
        chunk_id: int = -1,
        track: str | None = None,
    ) -> Span:
        """Explicit begin/end recording (the simulator's virtual clock)."""
        span = self.spans.record(
            stage, start, end, stream_id=stream_id, chunk_id=chunk_id,
            track=track,
        )
        if track is not None:
            self.heartbeat(track, ts=end)
        self._stage_seconds.labels(stage=stage).observe(span.duration)
        return span

    # -- liveness --------------------------------------------------------

    def heartbeat(self, worker: str, *, ts: float | None = None) -> None:
        """Record that ``worker`` was alive at ``ts`` (default: now).

        Workers beat implicitly on every span exit; long-blocking code
        paths that produce no spans (e.g. a reconnect backoff loop) may
        beat explicitly.  The watchdog and ``/healthz`` read these.
        """
        self._heartbeats.labels(worker=worker).set(
            self.clock.now() if ts is None else ts
        )

    def record_affinity(self, role: str, ncpus: int) -> None:
        """Record the CPU-set size *actually applied* to ``role``.

        Thread workers report through :func:`repro.live.affinity.
        pin_current_thread`; for a process worker the parent reports
        the set it placed the worker on.  A value smaller than the plan asked for means
        placement drift (out-of-range CPUs were dropped); 0 means the
        worker runs unpinned.
        """
        self._affinity.labels(role=role).set(ncpus)

    def affinity_cpus(self) -> dict[str, float]:
        """Applied CPU-set size per role seen so far."""
        return {
            series.labels[0]: series.value
            for series in self._affinity.series()
        }

    def heartbeats(self) -> dict[str, float]:
        """Last-beat clock time per worker seen so far."""
        return {
            series.labels[0]: series.value
            for series in self._heartbeats.series()
        }

    # -- structured events -----------------------------------------------

    def attach_events(self, bus: "EventBus") -> None:
        """Attach an event bus; :meth:`emit_event` becomes live."""
        self.events = bus

    def emit_event(
        self,
        kind: str,
        message: str = "",
        *,
        severity: str = "info",
        **fields: Any,
    ) -> "Event | None":
        """Emit a structured event on this run's timebase, if a bus is
        attached (no-op returning None otherwise).

        On the live wall clock events carry epoch timestamps (the bus
        default); on any other clock — the simulator's virtual one —
        they carry ``clock.now()`` so a sim chaos story is deterministic.
        """
        if self.events is None:
            return None
        ts = None if isinstance(self.clock, WallClock) else self.clock.now()
        return self.events.emit(
            kind, message, severity=severity, ts=ts, **fields
        )

    # -- canonical pipeline metrics --------------------------------------

    def record_chunk(self, stage: str, stream_id: str, nbytes: int) -> None:
        """One chunk left ``stage``: bump the chunk and byte counters."""
        self._chunks.labels(stage=stage, stream=stream_id).inc()
        self._bytes.labels(stage=stage, stream=stream_id).inc(nbytes)

    def record_frame(self, direction: str, nbytes: int) -> None:
        """One transport frame moved (``direction`` is ``tx`` or ``rx``)."""
        self._frames.labels(direction=direction).inc()
        self._tbytes.labels(direction=direction).inc(nbytes)

    def record_batch(self, site: str, size: int) -> None:
        """One batched operation moved ``size`` items at ``site``
        (e.g. ``sendq.get``, ``wire.tx``)."""
        self._batch_size.labels(site=site).observe(size)

    def queue_gauge(self, queue: str) -> GaugeSeries:
        """The occupancy gauge series for one named queue."""
        return self._queue_depth.labels(queue=queue)

    # -- resilience ledger -----------------------------------------------

    def record_retry(self) -> None:
        """One reconnect attempt after a transport failure."""
        self._retries.inc()

    def record_redelivery(self) -> None:
        """One unacknowledged frame replayed after a reconnect."""
        self._redeliveries.inc()

    def record_rejected(self) -> None:
        """One frame rejected by the receiver for an integrity failure."""
        self._rejected.inc()

    def record_dedup(self) -> None:
        """One duplicate frame dropped by the receiver."""
        self._deduped.inc()

    def record_fault(self, kind: str) -> None:
        """One injected fault fired (``kind`` names the sabotage)."""
        self._faults.labels(kind=kind).inc()

    def record_deferred(self, stream_id: str) -> None:
        """One read deferral (fair-share backpressure) for a stream."""
        self._deferred.labels(stream=stream_id).inc()

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0.0 when never touched)."""
        family = self.registry.get(name)
        if family is None:
            return 0.0
        return family.labels(**labels).value

    # -- derived views ---------------------------------------------------

    def pipeline_report(
        self,
        stream_id: str | None = None,
        *,
        thread_counts: Mapping[str, int] | None = None,
    ) -> PipelineReport:
        """Service/queue-wait/bottleneck analysis over collected spans."""
        counts = thread_counts
        if counts is None:
            counts = self.stream_thread_counts.get(
                stream_id or "", self.thread_counts
            )
        return PipelineReport.from_spans(
            self.spans.snapshot(), stream_id=stream_id, thread_counts=counts
        )

    def prometheus_text(self) -> str:
        return prometheus_text(self.registry)

    def chrome_trace(self) -> dict[str, Any]:
        return chrome_trace(self.spans.snapshot())

    def write_chrome_trace(self, path: str) -> int:
        return write_chrome_trace(self.spans.snapshot(), path)


def as_telemetry(value: "bool | Telemetry | None") -> "Telemetry | None":
    """Normalize the blessed ``telemetry=`` keyword shape.

    Every run entry point (``run_scenario``, ``SimRuntime``,
    ``LivePipeline``, ``ReceiverServer``, ``SenderClient``) accepts the
    same three spellings: ``False``/``None`` → telemetry off, ``True``
    → build a fresh :class:`Telemetry`, an instance → share it.  This
    is the only door: past it a telemetry is a :class:`Telemetry` or
    ``None``, so the hot path calls its methods without probing for
    them, and anything else is refused here.
    """
    if value is None or value is False:
        return None
    if value is True:
        return Telemetry()
    if not isinstance(value, Telemetry):
        raise ValidationError(
            f"telemetry must be a bool, None or a Telemetry, got {value!r}"
        )
    return value
