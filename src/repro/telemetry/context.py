"""Trace contexts and the head-based sampling decision.

Sampling is decided **once**, at the feeder, before a chunk enters the
pipeline (head-based): every downstream hop merely forwards the mark.
That keeps the hot path to a single attribute test per chunk and makes
a trace all-or-nothing — a sampled chunk is observed at every stage or
not at all, so assembled traces never have tail-sampling holes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceContext:
    """Membership mark for one sampled chunk.

    The identity *is* the (stream, chunk) pair the pipeline already
    carries in every queue item, ring record, and wire frame — no
    separate trace id travels with the data, only one flag bit.
    """

    stream_id: str
    chunk_id: int

    @property
    def key(self) -> tuple[str, int]:
        return (self.stream_id, self.chunk_id)


class HeadSampler:
    """1-in-N head sampling with an optional per-stream trace cap.

    ``sample == 0`` disables tracing entirely (:attr:`enabled` is then
    False and :meth:`sample_chunk` always returns None — callers can
    keep a single unconditional call).  ``sample == 1`` traces every
    chunk.  ``per_stream_cap`` bounds how many traces one stream may
    start, so a 1k-stream run cannot flood the span store no matter
    how long it runs.

    Thread-safe: feeders in different threads may share one sampler.
    """

    def __init__(self, sample: int = 0, per_stream_cap: int = 0) -> None:
        if sample < 0:
            raise ValueError(f"trace sample must be >= 0, got {sample}")
        if per_stream_cap < 0:
            raise ValueError(
                f"per-stream trace cap must be >= 0, got {per_stream_cap}"
            )
        self.sample = sample
        self.per_stream_cap = per_stream_cap
        self._lock = threading.Lock()
        self._seen: dict[str, int] = {}
        self._taken: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.sample > 0

    def sample_chunk(self, stream_id: str, chunk_id: int) -> TraceContext | None:
        """The feeder's per-chunk decision: a context, or None.

        The first chunk of every stream is always eligible (offset 0 of
        the 1-in-N pattern), so even a short stream yields a trace.
        """
        if self.sample <= 0:
            return None
        with self._lock:
            seen = self._seen.get(stream_id, 0)
            self._seen[stream_id] = seen + 1
            if seen % self.sample:
                return None
            taken = self._taken.get(stream_id, 0)
            if self.per_stream_cap and taken >= self.per_stream_cap:
                return None
            self._taken[stream_id] = taken + 1
        return TraceContext(stream_id, chunk_id)

    def traces_started(self, stream_id: str | None = None) -> int:
        """Traces begun so far (for one stream, or in total)."""
        with self._lock:
            if stream_id is not None:
                return self._taken.get(stream_id, 0)
            return sum(self._taken.values())
