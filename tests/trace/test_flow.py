"""Chrome-trace flow export: traced chunks as connected arrow chains."""

import json

from repro.telemetry import Span, assemble, trace_flows
from repro.telemetry import chrome_trace as chrome_flow_trace
from repro.telemetry import write_chrome_trace as write_flow_trace


def _span(stage, start, end, *, stream="s", chunk=0, track=None):
    return Span(stream, chunk, stage, start, end, track)


def _chain(chunk=0, stream="s"):
    base = float(chunk)
    return [
        _span("feed", base, base + 0.1, stream=stream, chunk=chunk,
              track="feeder"),
        _span("compress", base + 0.1, base + 0.3, stream=stream,
              chunk=chunk, track="compress-0"),
        _span("send", base + 0.3, base + 0.4, stream=stream, chunk=chunk,
              track="sender"),
    ]


class TestTraceFlows:
    def test_pairs_follow_consecutive_spans(self):
        (trace,) = assemble(_chain())
        pairs = trace_flows([trace])
        assert [(a.stage, b.stage) for a, b in pairs] == [
            ("feed", "compress"), ("compress", "send"),
        ]

    def test_defer_spans_do_not_break_the_chain(self):
        spans = [
            _span("wire", 0.0, 1.0),
            _span("defer", 1.0, 2.0),
            _span("recv", 2.0, 3.0),
        ]
        (trace,) = assemble(spans)
        pairs = trace_flows([trace])
        assert [(a.stage, b.stage) for a, b in pairs] == [("wire", "recv")]

    def test_single_span_trace_has_no_arrows(self):
        (trace,) = assemble([_span("feed", 0.0, 1.0)])
        assert trace_flows([trace]) == []


class TestChromeFlowTrace:
    def test_flow_events_link_the_stages(self):
        doc = chrome_flow_trace(_chain())
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e["bp"] == "e" for e in finishes)
        assert starts[0]["name"] == "s#0"

    def test_all_spans_still_exported_as_complete_events(self):
        spans = _chain() + [Span("", -1, "heartbeat", 0.0, 1.0)]
        doc = chrome_flow_trace(spans)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 4  # anonymous span exported, not flowed

    def test_untraced_chunks_get_no_arrows(self):
        # A lone per-chunk span (batch telemetry) is not a flow.
        doc = chrome_flow_trace([_span("recv", 0.0, 1.0)])
        assert not [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]

    def test_arrows_go_from_src_end_to_dst_start(self):
        doc = chrome_flow_trace(_chain())
        start = next(e for e in doc["traceEvents"] if e["ph"] == "s")
        finish = next(e for e in doc["traceEvents"] if e["ph"] == "f")
        # feed ends at 0.1s, compress starts at 0.1s (origin 0.0).
        assert start["ts"] == finish["ts"] == 0.1 * 1e6


class TestWriteFlowTrace:
    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "flow.json"
        count = write_flow_trace(_chain(), str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "s", "f", "M"} <= phases
