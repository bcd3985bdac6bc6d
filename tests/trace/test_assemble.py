"""Span reassembly: causal ordering, waterfalls, critical paths."""

import pytest

from repro.telemetry.spans import Span
from repro.telemetry import (
    CANONICAL_STAGES,
    ClockAlign,
    assemble,
    canonical_stage,
    critical_path,
    trace_summary,
)


def _span(stage, start, end, *, stream="s", chunk=0, track=None):
    return Span(stream, chunk, stage, start, end, track)


class TestCanonicalStage:
    def test_sim_ingest_folds_onto_live_feed(self):
        assert canonical_stage("ingest") == "feed"

    def test_live_names_pass_through(self):
        for stage in CANONICAL_STAGES:
            assert canonical_stage(stage) == stage


class TestAssemble:
    def test_groups_by_chunk_identity(self):
        spans = [
            _span("feed", 0.0, 1.0, chunk=0),
            _span("feed", 0.0, 1.0, chunk=1),
            _span("compress", 1.0, 2.0, chunk=0),
        ]
        traces = assemble(spans)
        assert [(t.stream_id, t.chunk_id) for t in traces] == [
            ("s", 0), ("s", 1),
        ]
        assert traces[0].stage_order() == ("feed", "compress")

    def test_anonymous_spans_do_not_participate(self):
        spans = [
            _span("feed", 0.0, 1.0),
            Span("", -1, "heartbeat", 0.0, 5.0),
            Span("s", -1, "batch-flush", 0.0, 5.0),
        ]
        traces = assemble(spans)
        assert len(traces) == 1
        assert traces[0].stage_order() == ("feed",)

    def test_rank_major_order_beats_wait_inclusive_starts(self):
        # Live stage spans open when a worker begins *waiting*: here the
        # receiver's span starts before the chunk was even compressed.
        # Causal order must come from the pipeline topology, not starts.
        spans = [
            _span("recv", 0.05, 3.0),
            _span("decompress", 0.1, 3.5),
            _span("send", 0.02, 2.2),
            _span("wire", 2.1, 2.9),
            _span("compress", 0.0, 2.0),
            _span("feed", 0.0, 0.5),
        ]
        (trace,) = assemble(spans)
        assert trace.stage_order() == (
            "feed", "compress", "send", "wire", "recv", "decompress",
        )

    def test_repeated_stage_spans_sequence_by_start(self):
        spans = [
            _span("compress", 2.0, 3.0),
            _span("compress", 0.0, 1.0),
        ]
        (trace,) = assemble(spans)
        assert [s.start for s in trace.spans] == [0.0, 2.0]

    def test_sim_zero_width_ties_come_out_in_pipeline_order(self):
        spans = [
            _span("egest", 5.0, 5.0),
            _span("ingest", 5.0, 5.0),
            _span("compress", 5.0, 5.0),
        ]
        (trace,) = assemble(spans)
        assert trace.stage_order() == ("feed", "compress", "egest")

    def test_handoff_waits_are_the_gaps(self):
        spans = [
            _span("feed", 0.0, 1.0),
            _span("compress", 1.5, 2.0),
            _span("send", 2.0, 3.0),
        ]
        (trace,) = assemble(spans)
        assert trace.edges() == (("feed", "compress"), ("compress", "send"))
        assert [h.wait for h in trace.handoffs] == [
            pytest.approx(0.5), pytest.approx(0.0),
        ]

    def test_overlapping_stages_clamp_wait_at_zero(self):
        # The wire span starts inside the send syscall by construction.
        spans = [_span("send", 0.0, 2.0), _span("wire", 1.0, 3.0)]
        (trace,) = assemble(spans)
        assert trace.handoffs[0].wait == 0.0


class TestChunkTrace:
    def test_totals_span_the_whole_journey(self):
        spans = [_span("feed", 1.0, 2.0), _span("compress", 3.0, 4.5)]
        (trace,) = assemble(spans)
        assert trace.start == 1.0
        assert trace.end == 4.5
        assert trace.total == pytest.approx(3.5)

    def test_waterfall_decomposes_by_cause(self):
        spans = [
            _span("feed", 0.0, 1.0),
            _span("compress", 2.0, 3.0),
            _span("wire", 3.0, 3.25),
            _span("defer", 3.25, 3.75),
            _span("recv", 3.25, 4.0),
        ]
        (trace,) = assemble(spans)
        wf = trace.waterfall()
        assert wf["stage_work"] == pytest.approx(2.75)  # feed+compress+recv
        assert wf["wire"] == pytest.approx(0.25)
        assert wf["deferral"] == pytest.approx(0.5)
        assert wf["queue_wait"] == pytest.approx(1.0)  # feed -> compress
        assert wf["total"] == pytest.approx(4.0)

    def test_defer_excluded_from_topology_and_edges(self):
        spans = [
            _span("wire", 0.0, 1.0),
            _span("defer", 1.0, 2.0),
            _span("recv", 2.0, 3.0),
        ]
        (trace,) = assemble(spans)
        assert trace.stage_order() == ("wire", "recv")
        assert trace.edges() == (("wire", "recv"),)

    def test_critical_stage_counts_work_plus_incoming_wait(self):
        spans = [
            _span("feed", 0.0, 1.0),
            # compress worked 0.5s but waited 2.0s for the chunk: the
            # compress stage owns 2.5s of this chunk's journey.
            _span("compress", 3.0, 3.5),
            _span("send", 3.5, 4.0),
        ]
        (trace,) = assemble(spans)
        assert trace.critical_stage() == "compress"
        assert trace.stage_costs()["compress"] == pytest.approx(2.5)

    def test_to_dict_has_the_endpoint_schema(self):
        spans = [_span("ingest", 0.0, 1.0, track="core-0")]
        (trace,) = assemble(spans)
        doc = trace.to_dict()
        assert doc["stream"] == "s"
        assert doc["chunk"] == 0
        assert doc["spans"][0]["stage"] == "feed"  # canonicalized
        assert doc["spans"][0]["track"] == "core-0"
        assert set(doc["waterfall"]) == {
            "stage_work", "wire", "queue_wait", "deferral", "total",
        }
        assert doc["critical_stage"] == "feed"


class TestCriticalPath:
    def test_names_the_binding_stage_per_stream(self):
        spans = [
            _span("feed", 0.0, 1.0, stream="hot", chunk=0),
            _span("compress", 1.0, 9.0, stream="hot", chunk=0),
            _span("feed", 0.0, 3.0, stream="cold", chunk=0),
            _span("compress", 3.0, 4.0, stream="cold", chunk=0),
        ]
        verdicts = critical_path(assemble(spans))
        assert verdicts["hot"].stage == "compress"
        assert verdicts["hot"].seconds == pytest.approx(8.0)
        assert verdicts["hot"].share == pytest.approx(8.0 / 9.0)
        assert verdicts["cold"].stage == "feed"

    def test_aggregates_across_chunks(self):
        spans = [
            _span("feed", 0.0, 1.0, chunk=0),
            _span("compress", 1.0, 1.5, chunk=0),
            _span("feed", 2.0, 3.0, chunk=1),
            _span("compress", 3.0, 3.5, chunk=1),
        ]
        verdict = critical_path(assemble(spans))["s"]
        assert verdict.stage == "feed"
        assert verdict.seconds == pytest.approx(2.0)

    def test_empty_input_is_empty(self):
        assert critical_path([]) == {}


class TestClockAlign:
    def test_min_delta_bounds_the_offset(self):
        align = ClockAlign()
        align.observe(10.0, 10.7)
        align.observe(20.0, 20.3)
        align.observe(30.0, 30.9)
        assert align.offset_bound == pytest.approx(0.3)
        assert align.samples == 3

    def test_align_maps_sender_stamps(self):
        align = ClockAlign()
        align.observe(0.0, 0.25)
        assert align.align(4.0) == pytest.approx(4.25)

    def test_unobserved_is_identity(self):
        align = ClockAlign()
        assert align.offset_bound == 0.0
        assert align.align(1.5) == 1.5


class TestTraceSummary:
    def _spans(self, n):
        out = []
        for chunk in range(n):
            base = float(chunk)
            out.append(_span("feed", base, base + 0.1, chunk=chunk))
            out.append(_span("compress", base + 0.1, base + 0.3, chunk=chunk))
        return out

    def test_document_shape(self):
        doc = trace_summary(self._spans(2))
        assert doc["count"] == 2
        assert len(doc["traces"]) == 2
        assert doc["critical_path"]["s"]["stage"] == "compress"
        assert doc["clock"] == {"offset_bound": 0.0, "samples": 0}

    def test_limit_keeps_newest(self):
        doc = trace_summary(self._spans(5), limit=2)
        assert doc["count"] == 5
        assert [t["chunk"] for t in doc["traces"]] == [3, 4]

    def test_align_feeds_the_clock_block(self):
        align = ClockAlign()
        align.observe(0.0, 0.002)
        doc = trace_summary(self._spans(1), align=align)
        assert doc["clock"]["offset_bound"] == pytest.approx(0.002)
        assert doc["clock"]["samples"] == 1
