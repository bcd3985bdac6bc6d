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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.clock import Clock, WallClock

_WALL = WallClock()


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


class ActiveSpan:
    """Handle yielded by :func:`stage_span` / :meth:`SpanStore.span`.

    ``duration`` is valid after the ``with`` block exits, whether or not
    a store is attached — live workers use it to feed their legacy
    per-stage stats without a second clock read.
    """

    __slots__ = ("stage", "stream_id", "chunk_id", "track", "start", "end",
                 "discard")

    def __init__(
        self, stage: str, stream_id: str, chunk_id: int, track: str | None,
        start: float,
    ) -> None:
        self.stage = stage
        self.stream_id = stream_id
        self.chunk_id = chunk_id
        self.track = track
        self.start = start
        self.end: float | None = None
        #: Set True inside the block to drop the span at exit (e.g. a
        #: receive that turned out to be the end-of-stream marker).
        self.discard = False

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
        on_drop=None,
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

    @contextmanager
    def span(
        self,
        stage: str,
        *,
        stream_id: str = "",
        chunk_id: int = -1,
        track: str | None = None,
    ) -> Iterator[ActiveSpan]:
        """Time a block on this store's clock and record the span.

        The span is recorded even when the block raises — a failing
        stage still occupied its thread, and traces of failures are the
        ones worth reading.  Identity fields are read off the handle at
        exit, so a block may fill in ``stream_id``/``chunk_id`` once it
        learns them (e.g. a receiver that discovers the chunk id inside
        the frame it just read).
        """
        handle = ActiveSpan(stage, stream_id, chunk_id, track, self.clock.now())
        try:
            yield handle
        finally:
            handle.end = self.clock.now()
            if not handle.discard:
                self.add(
                    Span(
                        handle.stream_id, handle.chunk_id, handle.stage,
                        handle.start, handle.end, handle.track,
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


@contextmanager
def stage_span(
    telemetry,
    stage: str,
    *,
    stream_id: str = "",
    chunk_id: int = -1,
    track: str | None = None,
) -> Iterator[ActiveSpan]:
    """The shared timing idiom for live workers.

    Works with ``telemetry=None`` (timing only, nothing recorded) so
    worker bodies need no conditional: the handle's ``duration`` always
    becomes valid when the block exits, and when a
    :class:`~repro.telemetry.Telemetry` is attached the span lands in
    its store and its stage-seconds histogram.
    """
    if telemetry is None:
        handle = ActiveSpan(stage, stream_id, chunk_id, track, _WALL.now())
        try:
            yield handle
        finally:
            handle.end = _WALL.now()
        return
    with telemetry.span(
        stage, stream_id=stream_id, chunk_id=chunk_id, track=track
    ) as handle:
        yield handle
