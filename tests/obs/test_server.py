"""ObservabilityServer: all four endpoints over a real loopback socket."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.events import EventBus
from repro.obs.profiler import SamplingProfiler
from repro.obs.promparse import parse_prometheus_text, sample_value
from repro.obs.server import PROM_CONTENT_TYPE, ObservabilityServer
from repro.telemetry import Telemetry
from tests.manual_clock import ManualClock


def get(url):
    """(status, headers, body) for a GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture
def stack():
    clock = ManualClock()
    tel = Telemetry(clock=clock)
    bus = EventBus(source="test")
    tel.attach_events(bus)
    server = ObservabilityServer(tel, port=0, stale_after=1.0, events=bus)
    server.start()
    yield tel, clock, bus, server
    server.stop()


class TestEndpoints:
    def test_metrics_round_trips_through_parser(self, stack):
        tel, clock, bus, server = stack
        tel.record_chunk("compress", "s", 2048)
        status, headers, body = get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        fams = parse_prometheus_text(body.decode())
        assert sample_value(
            fams, "pipeline_chunks_total",
            {"stage": "compress", "stream": "s"},
        ) == 1.0

    def test_healthz_flips_to_503_on_stale_heartbeat(self, stack):
        tel, clock, bus, server = stack
        tel.heartbeat("compress-0")
        status, _, body = get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        clock.advance(2.0)  # past stale_after=1.0
        status, _, body = get(server.url + "/healthz")
        assert status == 503
        verdict = json.loads(body)
        assert verdict["status"] == "stale"
        assert verdict["stale_workers"] == ["compress-0"]
        assert verdict["workers"]["compress-0"]["ok"] is False

    def test_mark_finished_suppresses_staleness(self, stack):
        tel, clock, bus, server = stack
        tel.heartbeat("compress-0")
        clock.advance(10.0)
        server.mark_finished()
        status, _, body = get(server.url + "/healthz")
        assert status == 200
        verdict = json.loads(body)
        assert verdict["status"] == "finished"
        assert verdict["stale_workers"] == []

    def test_report_carries_pipeline_analysis(self, stack):
        tel, clock, bus, server = stack
        tel.record_span("compress", 0.0, 1.0, stream_id="s", chunk_id=0)
        status, _, body = get(server.url + "/report")
        assert status == 200
        report = json.loads(body)
        assert report["bottleneck"] == "compress"
        assert "compress" in report["stages"]

    def test_report_merges_profiler(self, stack):
        tel, clock, bus, server = stack
        profiler = SamplingProfiler(hz=50.0)
        profiler.start()
        profiler.stop()
        server.profiler = profiler
        status, _, body = get(server.url + "/report")
        assert status == 200
        assert "profile" in json.loads(body)

    def test_events_endpoint_with_filters(self, stack):
        tel, clock, bus, server = stack
        bus.emit("run_start", "go")
        bus.emit("stage_stall", "w0 silent", severity="warning")
        bus.emit("stage_stall", "w1 silent", severity="warning")
        status, _, body = get(server.url + "/events")
        assert status == 200
        payload = json.loads(body)
        assert payload["emitted"] == 3
        assert payload["counts"] == {"run_start": 1, "stage_stall": 2}
        assert len(payload["events"]) == 3

        _, _, body = get(server.url + "/events?n=1&kind=stage_stall")
        payload = json.loads(body)
        assert [e["message"] for e in payload["events"]] == ["w1 silent"]

    def test_trace_serves_assembled_traces(self, stack):
        tel, clock, bus, server = stack
        for chunk in range(3):
            base = float(chunk)
            tel.record_span("feed", base, base + 0.1,
                            stream_id="s", chunk_id=chunk)
            tel.record_span("compress", base + 0.2, base + 0.5,
                            stream_id="s", chunk_id=chunk)
        tel.trace_align.observe(1.0, 1.002)
        status, _, body = get(server.url + "/trace")
        assert status == 200
        doc = json.loads(body)
        assert doc["count"] == 3
        trace = doc["traces"][0]
        assert [s["stage"] for s in trace["spans"]] == ["feed", "compress"]
        assert trace["waterfall"]["queue_wait"] == pytest.approx(0.1)
        assert doc["critical_path"]["s"]["stage"] == "compress"
        assert doc["clock"]["offset_bound"] == pytest.approx(0.002)

    def test_trace_limit_query(self, stack):
        tel, clock, bus, server = stack
        for chunk in range(5):
            tel.record_span("feed", float(chunk), chunk + 0.1,
                            stream_id="s", chunk_id=chunk)
        _, _, body = get(server.url + "/trace?n=2")
        doc = json.loads(body)
        assert doc["count"] == 5
        assert [t["chunk"] for t in doc["traces"]] == [3, 4]

    def test_trace_empty_store(self, stack):
        tel, clock, bus, server = stack
        status, _, body = get(server.url + "/trace")
        assert status == 200
        doc = json.loads(body)
        assert doc == {
            "count": 0, "traces": [], "critical_path": {},
            "clock": {"offset_bound": 0.0, "samples": 0},
        }

    def test_index_and_404(self, stack):
        tel, clock, bus, server = stack
        status, _, body = get(server.url + "/")
        assert status == 200
        assert set(json.loads(body)["endpoints"]) == {
            "/metrics", "/healthz", "/report", "/events", "/trace"
        }
        status, _, _ = get(server.url + "/nope")
        assert status == 404


class TestLifecycle:
    def test_ephemeral_port_and_url(self):
        server = ObservabilityServer(Telemetry(), port=0)
        try:
            assert server.port > 0
            assert server.url == f"http://127.0.0.1:{server.port}"
        finally:
            server.stop()

    def test_context_manager(self):
        with ObservabilityServer(Telemetry(), port=0) as server:
            status, _, _ = get(server.url + "/healthz")
            assert status == 200

    def test_no_events_bus(self):
        with ObservabilityServer(Telemetry(), port=0) as server:
            _, _, body = get(server.url + "/events")
            assert json.loads(body) == {"events": [], "emitted": 0}

    def test_stale_after_validation(self):
        with pytest.raises(ValueError):
            ObservabilityServer(Telemetry(), stale_after=0)

    def test_uses_telemetry_attached_bus_by_default(self):
        tel = Telemetry()
        bus = EventBus()
        tel.attach_events(bus)
        server = ObservabilityServer(tel, port=0)
        try:
            assert server.events is bus
        finally:
            server.stop()
