"""Exporter formats: Prometheus text, Chrome trace."""

import json

from repro.telemetry import (
    MetricRegistry,
    Span,
    chrome_trace,
    prometheus_text,
    write_chrome_trace,
)


def sample_registry():
    reg = MetricRegistry()
    c = reg.counter("chunks_total", "chunks done", ("stage",))
    c.labels("compress").inc(3)
    g = reg.gauge("queue_depth", "occupancy", ("queue",))
    g.labels(queue="sendq").set(5)
    g.labels(queue="sendq").set(2)
    h = reg.histogram("stage_seconds", "service", ("stage",),
                      buckets=(0.1, 1.0))
    h.labels("compress").observe(0.05)
    h.labels("compress").observe(0.5)
    h.labels("compress").observe(2.0)
    return reg


class TestPrometheusText:
    def test_help_and_type_headers(self):
        text = prometheus_text(sample_registry())
        assert "# HELP chunks_total chunks done" in text
        assert "# TYPE chunks_total counter" in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE stage_seconds histogram" in text

    def test_sample_lines(self):
        text = prometheus_text(sample_registry())
        assert 'chunks_total{stage="compress"} 3' in text
        assert 'queue_depth{queue="sendq"} 2' in text

    def test_histogram_buckets_are_cumulative(self):
        lines = prometheus_text(sample_registry()).splitlines()
        buckets = [l for l in lines if l.startswith("stage_seconds_bucket")]
        assert buckets == [
            'stage_seconds_bucket{stage="compress",le="0.1"} 1',
            'stage_seconds_bucket{stage="compress",le="1"} 2',
            'stage_seconds_bucket{stage="compress",le="+Inf"} 3',
        ]
        assert 'stage_seconds_count{stage="compress"} 3' in lines
        assert 'stage_seconds_sum{stage="compress"} 2.55' in lines

    def test_label_escaping(self):
        reg = MetricRegistry()
        reg.counter("x_total", "", ("path",)).labels('a"b\\c').inc()
        text = prometheus_text(reg)
        assert 'x_total{path="a\\"b\\\\c"} 1' in text


def sample_spans():
    return [
        Span("det1", 0, "feed", 10.0, 10.5, track="feeder"),
        Span("det1", 0, "compress", 10.5, 11.0, track="compress-0"),
        Span("det1", 1, "compress", 11.0, 11.25, track="compress-1"),
        Span("det2", 0, "feed", 10.2, 10.4, track="feeder"),
    ]


class TestChromeTrace:
    def test_round_trips_through_json(self):
        doc = json.loads(json.dumps(chrome_trace(sample_spans())))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"

    def test_complete_events_schema(self):
        doc = chrome_trace(sample_spans())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 4
        for e in xs:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["ts"] >= 0
            assert e["dur"] > 0

    def test_timestamps_relative_microseconds(self):
        doc = chrome_trace(sample_spans())
        xs = sorted(
            (e for e in doc["traceEvents"] if e["ph"] == "X"),
            key=lambda e: e["ts"],
        )
        assert xs[0]["ts"] == 0.0  # earliest span anchors the origin
        assert xs[0]["dur"] == 500_000.0  # 0.5 s in µs

    def test_pid_per_stream_tid_per_track(self):
        doc = chrome_trace(sample_spans())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["cat"]: e["pid"] for e in xs}
        assert len(set(pids.values())) == 2  # det1, det2
        det1_tids = {e["tid"] for e in xs if e["cat"] == "det1"}
        assert len(det1_tids) == 3  # feeder, compress-0, compress-1

    def test_metadata_events_name_tracks_and_processes(self):
        doc = chrome_trace(sample_spans())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"thread_name", "process_name"}
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert {"feeder", "compress-0", "compress-1"} <= thread_names

    def test_empty_store(self):
        assert chrome_trace([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(sample_spans(), str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
