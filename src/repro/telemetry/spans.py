"""Span recording: one timed interval of one pipeline stage's work.

A :class:`Span` is the unit both execution substrates emit — the live
pipeline wraps codec/socket calls in the :func:`stage_span` context
manager on the wall clock, the simulator records explicit begin/end
pairs on its virtual clock.  :class:`SpanStore` collects them
thread-safely; :mod:`repro.telemetry.report` turns them into per-stage
service/queue-wait statistics and :mod:`repro.telemetry.export` into a
Chrome ``trace_event`` file.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

from repro.telemetry.clock import Clock, WallClock


@dataclass(frozen=True)
class Span:
    """One stage's work interval for one chunk."""

    stream_id: str
    chunk_id: int
    stage: str
    start: float
    end: float
    #: Where the work ran: a core name (sim) or thread name (live).
    track: str | None = None

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"span for {self.stream_id}#{self.chunk_id}/{self.stage} "
                "ends before it starts"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanSink(Protocol):
    """What an :class:`ActiveSpan` needs of where it lands: the clock
    to stamp with, and what to do with the finished span."""

    clock: Clock

    def _close(self, span: "ActiveSpan") -> None: ...


class ActiveSpan:
    """One timed block: the context manager :func:`stage_span`,
    :meth:`Telemetry.span` and :meth:`SpanStore.span` return.

    ``__enter__`` stamps ``start`` on the sink's clock; ``__exit__``
    stamps ``end`` and hands the span to the sink's ``_close`` — also
    when the block raises: a failing stage still occupied its thread,
    and traces of failures are the ones worth reading.  Identity fields
    are read at exit, so a block may fill in ``stream_id``/``chunk_id``
    once it learns them (e.g. a receiver that discovers the chunk id
    inside the frame it just read).  ``duration`` is valid after the
    block exits, whatever the sink — live workers use it to feed their
    legacy per-stage stats without a second clock read.  ``sink=None``
    times on the wall clock and keeps nothing.
    """

    __slots__ = ("stage", "stream_id", "chunk_id", "track", "start", "end",
                 "discard", "_sink")

    start: float

    def __init__(
        self, sink: SpanSink | None, stage: str, stream_id: str = "",
        chunk_id: int = -1, track: str | None = None,
    ) -> None:
        self._sink = _UNRECORDED if sink is None else sink
        self.stage = stage
        self.stream_id = stream_id
        self.chunk_id = chunk_id
        self.track = track
        self.end: float | None = None
        #: Set True inside the block to drop the span at exit (e.g. a
        #: receive that turned out to be the end-of-stream marker).
        self.discard = False

    def __enter__(self) -> "ActiveSpan":
        self.start = self._sink.clock.now()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = self._sink.clock.now()
        self._sink._close(self)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError("span still open; duration known after exit")
        return self.end - self.start


#: Default retention bound.  Generous — a loopback bench run records a
#: handful of spans per chunk — but finite: a 1k-stream live run left
#: up for days must not grow an unbounded list (satellite of PR 10).
DEFAULT_MAX_SPANS = 1 << 20


class SpanStore:
    """Thread-safe span collection with bounded, drop-oldest retention.

    ``max_spans`` caps the store (0 = unbounded); once full, each new
    span evicts the oldest and bumps :attr:`dropped`.  ``on_drop`` is
    called (outside any hot loop, once per eviction) so the telemetry
    facade can surface drops as ``repro_spans_dropped_total``.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        *,
        max_spans: int = DEFAULT_MAX_SPANS,
        on_drop: Callable[[], None] | None = None,
    ) -> None:
        if max_spans < 0:
            raise ValueError(f"max_spans must be >= 0, got {max_spans}")
        self.clock: Clock = clock or WallClock()
        self.max_spans = max_spans
        self.on_drop = on_drop
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(
            maxlen=max_spans if max_spans > 0 else None
        )
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Spans evicted by the retention ring since construction."""
        return self._dropped

    # -- recording -------------------------------------------------------

    def add(self, span: Span) -> Span:
        with self._lock:
            evicting = (
                self._spans.maxlen is not None
                and len(self._spans) == self._spans.maxlen
            )
            self._spans.append(span)
            if evicting:
                self._dropped += 1
        if evicting and self.on_drop is not None:
            self.on_drop()
        return span

    def record(
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
        return self.add(Span(stream_id, chunk_id, stage, start, end, track))

    def span(
        self,
        stage: str,
        *,
        stream_id: str = "",
        chunk_id: int = -1,
        track: str | None = None,
    ) -> ActiveSpan:
        """Time a block on this store's clock and record the span."""
        return ActiveSpan(self, stage, stream_id, chunk_id, track)

    def _close(self, span: ActiveSpan) -> None:
        if not span.discard:
            assert span.end is not None
            self.add(
                Span(
                    span.stream_id, span.chunk_id, span.stage,
                    span.start, span.end, span.track,
                )
            )

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.snapshot())

    def snapshot(self) -> list[Span]:
        """A consistent copy of all spans recorded so far."""
        with self._lock:
            return list(self._spans)

    def for_stream(self, stream_id: str) -> list[Span]:
        return [s for s in self.snapshot() if s.stream_id == stream_id]

    def for_chunk(self, stream_id: str, chunk_id: int) -> list[Span]:
        """Spans of one chunk, ordered by start time."""
        spans = [
            s
            for s in self.snapshot()
            if s.stream_id == stream_id and s.chunk_id == chunk_id
        ]
        return sorted(spans, key=lambda s: (s.start, s.end))

    def stages(self) -> set[str]:
        return {s.stage for s in self.snapshot()}

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


class _Unrecorded:
    """The sink of a span nobody collects: wall clock, nothing kept."""

    clock: Clock = WallClock()

    def _close(self, span: ActiveSpan) -> None:
        pass


_UNRECORDED = _Unrecorded()


def stage_span(
    telemetry: SpanSink | None,
    stage: str,
    *,
    stream_id: str = "",
    chunk_id: int = -1,
    track: str | None = None,
) -> ActiveSpan:
    """The shared timing idiom for live workers.

    Works with ``telemetry=None`` (timing only, nothing recorded) so
    worker bodies need no conditional: the handle's ``duration`` always
    becomes valid when the block exits, and when a
    :class:`~repro.telemetry.Telemetry` is attached the span lands in
    its store and its stage-seconds histogram.
    """
    return ActiveSpan(telemetry, stage, stream_id, chunk_id, track)
