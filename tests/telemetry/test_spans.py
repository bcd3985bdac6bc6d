"""Span recording on pluggable clocks."""

import sys
from collections import Counter

import pytest

from repro.telemetry import Span, SpanStore, Telemetry
from repro.telemetry.spans import stage_span
from tests.manual_clock import ManualClock


class TestSpan:
    def test_duration_and_aliases(self):
        s = Span("det1", 3, "compress", 1.0, 1.5, track="core-0")
        assert s.duration == pytest.approx(0.5)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span("s", 0, "x", 2.0, 1.0)


class TestSpanStore:
    def test_context_manager_on_manual_clock(self):
        clock = ManualClock()
        store = SpanStore(clock=clock)
        with store.span("compress", stream_id="s", chunk_id=0):
            clock.advance(0.25)
        (span,) = store.snapshot()
        assert span.stage == "compress"
        assert span.duration == pytest.approx(0.25)

    def test_identity_fillable_inside_block(self):
        store = SpanStore(clock=ManualClock())
        with store.span("recv") as sp:
            sp.stream_id = "learned-late"
            sp.chunk_id = 7
        (span,) = store.snapshot()
        assert (span.stream_id, span.chunk_id) == ("learned-late", 7)

    def test_discard_drops_span(self):
        store = SpanStore(clock=ManualClock())
        with store.span("recv") as sp:
            sp.discard = True
        assert len(store) == 0

    def test_span_recorded_even_on_exception(self):
        clock = ManualClock()
        store = SpanStore(clock=clock)
        with pytest.raises(RuntimeError):
            with store.span("compress", stream_id="s", chunk_id=1):
                clock.advance(0.1)
                raise RuntimeError("codec blew up")
        (span,) = store.snapshot()
        assert span.duration == pytest.approx(0.1)

    def test_explicit_record(self):
        store = SpanStore()
        store.record("wire", 1.0, 3.0, stream_id="s", chunk_id=2)
        (span,) = store.snapshot()
        assert span.duration == 2.0

    def test_for_chunk_sorted_by_start(self):
        store = SpanStore()
        store.record("send", 2.0, 3.0, stream_id="s", chunk_id=0)
        store.record("feed", 0.0, 1.0, stream_id="s", chunk_id=0)
        store.record("feed", 0.0, 1.0, stream_id="other", chunk_id=0)
        timeline = store.for_chunk("s", 0)
        assert [s.stage for s in timeline] == ["feed", "send"]

    def test_open_handle_has_no_duration(self):
        store = SpanStore(clock=ManualClock())
        with store.span("x") as sp:
            with pytest.raises(RuntimeError):
                _ = sp.duration
        assert sp.duration == 0.0


class TestBoundedRetention:
    def test_drop_oldest_once_full(self):
        store = SpanStore(clock=ManualClock(), max_spans=3)
        for i in range(5):
            store.record("feed", 0.0, 1.0, stream_id="s", chunk_id=i)
        assert len(store) == 3
        assert [s.chunk_id for s in store.snapshot()] == [2, 3, 4]
        assert store.dropped == 2

    def test_on_drop_fires_once_per_eviction(self):
        hits = []
        store = SpanStore(
            clock=ManualClock(), max_spans=2, on_drop=lambda: hits.append(1)
        )
        for _ in range(5):
            store.record("x", 0.0, 1.0)
        assert len(hits) == 3

    def test_zero_means_unbounded(self):
        store = SpanStore(clock=ManualClock(), max_spans=0)
        for _ in range(100):
            store.record("x", 0.0, 1.0)
        assert len(store) == 100
        assert store.dropped == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            SpanStore(max_spans=-1)

    def test_facade_surfaces_drops_as_counter(self):
        tel = Telemetry(clock=ManualClock(), max_spans=2)
        for i in range(5):
            tel.record_span("feed", 0.0, 1.0, stream_id="s", chunk_id=i)
        assert tel.counter_value("repro_spans_dropped_total") == 3
        assert len(tel.spans) == 2


class TestStageSpanHelper:
    def test_without_telemetry_still_times(self):
        with stage_span(None, "compress") as sp:
            pass
        assert sp.duration >= 0.0

    def test_with_telemetry_records_span_and_histogram(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock)
        with stage_span(tel, "compress", stream_id="s", chunk_id=0):
            clock.advance(0.5)
        assert len(tel.spans) == 1
        hist = tel.registry.get("pipeline_stage_seconds").labels("compress")
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.5)

    def test_discard_skips_histogram_too(self):
        tel = Telemetry(clock=ManualClock())
        with stage_span(tel, "recv") as sp:
            sp.discard = True
        assert len(tel.spans) == 0
        assert tel.registry.get("pipeline_stage_seconds").labels("recv").count == 0


def line_events(call) -> Counter:
    """Python ``line`` events per file name executed under ``call()``,
    the caller's own frame excluded.  The count repeats exactly, so it
    gates per-span interpreter work in tier-1 where a timing cannot."""
    lines: Counter = Counter()

    def local_trace(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename.rsplit("/", 1)[-1]] += 1
        return local_trace

    def global_trace(frame, event, arg):
        return None if frame.f_code is call.__code__ else local_trace

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines


class TestWorkCount:
    """A span is one object: constructor, two stamps, one ``_close`` —
    five of these run per chunk, 45 µs apart on 2 KiB payloads."""

    def test_unrecorded_span(self):
        def block():
            with stage_span(None, "compress", stream_id="s", chunk_id=0,
                            track="t"):
                pass

        lines = line_events(block)
        assert "contextlib.py" not in lines
        assert 0 < sum(lines.values()) <= 15, lines

    def test_recorded_span(self):
        tel = Telemetry()

        def block():
            with stage_span(tel, "compress", stream_id="s", chunk_id=0,
                            track="t"):
                pass

        block()  # the first span of a stage creates its label series
        lines = line_events(block)
        assert "contextlib.py" not in lines
        assert 0 < sum(lines.values()) <= 96, lines
