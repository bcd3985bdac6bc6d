"""PipelineReport: service time, queue wait, bottleneck verdict."""

from collections import defaultdict

import pytest

from repro.data.chunking import Chunk
from repro.live.runtime import LiveConfig, LivePipeline
from repro.telemetry import PipelineReport, Span, Telemetry, assemble


def two_chunk_spans():
    """Two chunks through feed → compress → send with known gaps.

    chunk 0: feed [0,1)  compress [2,4)  send [4,5)   (1s wait before compress)
    chunk 1: feed [1,2)  compress [4,6)  send [6,6.5) (2s wait before compress)
    """
    return [
        Span("s", 0, "feed", 0.0, 1.0),
        Span("s", 0, "compress", 2.0, 4.0),
        Span("s", 0, "send", 4.0, 5.0),
        Span("s", 1, "feed", 1.0, 2.0),
        Span("s", 1, "compress", 4.0, 6.0),
        Span("s", 1, "send", 6.0, 6.5),
    ]


class TestAggregation:
    def test_service_times(self):
        r = PipelineReport.from_spans(two_chunk_spans())
        assert r.stages["feed"].service.mean == pytest.approx(1.0)
        assert r.stages["compress"].service.mean == pytest.approx(2.0)
        assert r.stages["send"].service.mean == pytest.approx(0.75)
        assert r.stages["compress"].chunks == 2

    def test_queue_wait_is_gap_to_previous_stage(self):
        r = PipelineReport.from_spans(two_chunk_spans())
        # compress waits: chunk0 2-1=1s, chunk1 4-2=2s
        assert r.stages["compress"].queue_wait.mean == pytest.approx(1.5)
        # send starts immediately after compress for both chunks
        assert r.stages["send"].queue_wait.mean == pytest.approx(0.0)
        # feed is first: it never waits on an upstream stage
        assert r.stages["feed"].queue_wait.n == 0

    def test_makespan(self):
        r = PipelineReport.from_spans(two_chunk_spans())
        assert r.makespan == pytest.approx(6.5)

    def test_stream_filter(self):
        spans = two_chunk_spans() + [Span("other", 0, "feed", 0.0, 100.0)]
        r = PipelineReport.from_spans(spans, stream_id="s")
        assert r.makespan == pytest.approx(6.5)
        assert r.stages["feed"].chunks == 2


class TestQueueWaitIsTheAssembledHandoff:
    """Queue wait is read off ``assemble()``'s handoffs — pipeline order,
    not start order — so the report and ``/trace`` cannot disagree."""

    def test_receiver_that_opened_early_does_not_reorder_the_chunk(self):
        # A live receiver's span opens when it starts waiting, here
        # before the chunk was even compressed.
        spans = [
            Span("s", 0, "feed", 0.0, 1.0),
            Span("s", 0, "compress", 2.0, 4.0),
            Span("s", 0, "send", 5.0, 6.0),
            Span("s", 0, "recv", 1.5, 6.5),
            Span("s", 0, "decompress", 7.0, 8.0),
        ]
        r = PipelineReport.from_spans(spans)
        waits = {
            stage: agg.queue_wait.mean
            for stage, agg in r.stages.items() if agg.queue_wait.n
        }
        assert waits == {
            "compress": 1.0, "send": 1.0, "recv": 0.0, "decompress": 0.5,
        }
        assert list(r.stages) == [
            "feed", "compress", "send", "recv", "decompress",
        ]

    def test_anonymous_spans_are_not_one_chunk(self):
        spans = [
            Span("", -1, "plan.validate", 0.0, 1.0),
            Span("", -1, "plan.normalize", 5.0, 6.0),
        ]
        r = PipelineReport.from_spans(spans)
        assert [agg.queue_wait.n for agg in r.stages.values()] == [0, 0]
        assert r.stages["plan.normalize"].chunks == 1

    def test_live_report_equals_assembled_handoffs(self):
        tel = Telemetry()
        chunks = [
            Chunk(stream_id="s", index=i, nbytes=4096, payload=bytes(4096))
            for i in range(12)
        ]
        report = LivePipeline(
            LiveConfig(codec="zlib", trace_sample=1), telemetry=tel
        ).run(iter(chunks))
        assert report.ok, report.errors
        waits = defaultdict(list)
        for trace in assemble(tel.spans.snapshot()):
            for handoff in trace.handoffs:
                waits[handoff.dst].append(handoff.wait)
        assert {"compress", "send", "wire", "recv", "decompress"} <= set(waits)
        stages = tel.pipeline_report().stages
        for stage, samples in waits.items():
            assert stages[stage].queue_wait.n == len(samples)
            assert stages[stage].queue_wait.mean == pytest.approx(
                sum(samples) / len(samples)
            )
        assert stages["feed"].queue_wait.n == 0


class TestBottleneck:
    def test_busiest_stage_wins(self):
        r = PipelineReport.from_spans(two_chunk_spans())
        # busy: feed 2s, compress 4s, send 1.5s — one thread each
        assert r.bottleneck == "compress"

    def test_thread_counts_change_the_verdict(self):
        # 4 compress threads dilute its per-thread utilization below
        # feed's single thread.
        r = PipelineReport.from_spans(
            two_chunk_spans(),
            thread_counts={"feed": 1, "compress": 8, "send": 1},
        )
        util = r.stage_utilization()
        assert util["compress"] == pytest.approx(4.0 / (8 * 6.5))
        assert r.bottleneck == "feed"

    def test_empty_report(self):
        r = PipelineReport.from_spans([])
        assert r.bottleneck is None
        assert r.makespan == 0.0


class TestRender:
    def test_render_names_the_bottleneck(self):
        text = PipelineReport.from_spans(two_chunk_spans()).render()
        assert "bottleneck stage: compress" in text
        for stage in ("feed", "compress", "send"):
            assert stage in text
