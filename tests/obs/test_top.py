"""repro top: dashboard rendering and end-to-end polling."""

import pytest

from repro.obs.events import EventBus
from repro.obs.promparse import parse_prometheus_text
from repro.obs.server import ObservabilityServer
from repro.cli import main
from repro.obs.top import Dashboard, fetch_sample
from repro.telemetry import Telemetry
from tests.manual_clock import ManualClock


def synthetic_sample(*, chunks=100.0, healthy=True, depth=12.0):
    metrics_text = (
        "# TYPE pipeline_chunks_total counter\n"
        f'pipeline_chunks_total{{stage="compress",stream="s"}} {chunks}\n'
        f'pipeline_chunks_total{{stage="send",stream="s"}} {chunks - 1}\n'
        "# TYPE pipeline_queue_depth gauge\n"
        f'pipeline_queue_depth{{queue="sendq"}} {depth}\n'
        "# TYPE transport_retries_total counter\n"
        "transport_retries_total 3\n"
        "# TYPE repro_watchdog_stalls_total counter\n"
        'repro_watchdog_stalls_total{worker="recv-0"} 1\n'
    )
    return {
        "metrics": parse_prometheus_text(metrics_text),
        "report": {"bottleneck": "compress",
                   "stage_utilization": {"compress": 0.9, "send": 0.4},
                   "profile": {"compress": 1.25}},
        "health": {"status": "ok" if healthy else "stale",
                   "healthy": healthy,
                   "stale_workers": [] if healthy else ["recv-0"]},
        "events": {"events": [
            {"ts": 12.0, "kind": "stage_stall", "message": "recv-0 silent"},
        ]},
    }


class TestDashboard:
    def test_frame_shows_stages_and_badge(self):
        dash = Dashboard(color=False)
        frame = dash.frame(synthetic_sample(), now=10.0)
        assert "health=OK" in frame
        assert "bottleneck=compress" in frame
        assert "retries=3" in frame
        assert "watchdog_stalls=1" in frame
        assert "compress" in frame and "send" in frame
        assert "sendq" in frame
        assert "stage_stall: recv-0 silent" in frame

    def test_rates_come_from_counter_deltas(self):
        dash = Dashboard(color=False)
        dash.frame(synthetic_sample(chunks=100.0), now=10.0)
        frame = dash.frame(synthetic_sample(chunks=150.0), now=11.0)
        assert "    50.0" in frame  # 50 chunks over 1s on compress

    def test_stale_run_is_flagged(self):
        dash = Dashboard(color=False)
        frame = dash.frame(synthetic_sample(healthy=False), now=1.0)
        assert "health=STALE" in frame
        assert "stalled workers: recv-0" in frame

    def test_color_codes_only_when_enabled(self):
        sample = synthetic_sample()
        plain = Dashboard(color=False).frame(sample, now=1.0)
        colored = Dashboard(color=True).frame(sample, now=1.0)
        assert "\x1b[" not in plain
        assert "\x1b[" in colored


@pytest.fixture
def live_server():
    clock = ManualClock()
    tel = Telemetry(clock=clock)
    bus = EventBus(source="test")
    tel.attach_events(bus)
    tel.record_chunk("compress", "s", 2048)
    tel.record_span("compress", 0.0, 0.5, stream_id="s", chunk_id=0)
    bus.emit("run_start", "go")
    server = ObservabilityServer(tel, port=0, events=bus)
    server.start()
    yield server
    server.stop()


class TestEndToEnd:
    def test_fetch_sample_hits_all_endpoints(self, live_server):
        sample = fetch_sample(live_server.url)
        assert "pipeline_chunks_total" in sample["metrics"]
        assert sample["report"]["bottleneck"] == "compress"
        assert sample["health"]["healthy"] is True
        assert sample["events"]["events"][0]["kind"] == "run_start"

    def test_fetch_sample_keeps_503_health_body(self, live_server):
        tel = live_server.telemetry
        tel.heartbeat("recv-0", ts=0.0)
        tel.clock.advance(100.0)
        sample = fetch_sample(live_server.url)
        assert sample["health"]["healthy"] is False
        assert sample["health"]["stale_workers"] == ["recv-0"]

    def test_top_once(self, live_server, capsys):
        assert main(["top", live_server.url, "--once", "--no-color"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "compress" in out

    def test_top_unreachable_is_error(self, capsys):
        # A closed ephemeral port: nothing listens there any more.
        with ObservabilityServer(Telemetry(), port=0) as server:
            dead_url = server.url
        assert main(["top", dead_url, "--once"]) == 1
        assert "cannot poll" in capsys.readouterr().err
