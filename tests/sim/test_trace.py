"""Per-chunk stage spans on the virtual clock: timelines, bottleneck."""

import pytest

from repro.telemetry import Telemetry
from tests.manual_clock import ManualClock


def telemetry():
    return Telemetry(clock=ManualClock())


class TestRecording:
    def test_record_and_timeline(self):
        tel = telemetry()
        tel.record_span("compress", 0.0, 1.0, stream_id="s", chunk_id=0,
                        track="s0c0")
        tel.record_span("send", 1.2, 1.5, stream_id="s", chunk_id=0)
        tl = tel.spans.for_chunk("s", 0)
        assert [sp.stage for sp in tl] == ["compress", "send"]
        assert tl[0].duration == 1.0

    def test_timeline_sorted_by_start(self):
        tel = telemetry()
        tel.record_span("b", 2.0, 3.0, stream_id="s", chunk_id=0)
        tel.record_span("a", 0.0, 1.0, stream_id="s", chunk_id=0)
        assert [sp.stage for sp in tel.spans.for_chunk("s", 0)] == ["a", "b"]

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            telemetry().record_span("x", 2.0, 1.0, stream_id="s", chunk_id=0)

    def test_empty_timeline(self):
        assert telemetry().spans.for_chunk("s", 0) == []


class TestDerived:
    def _filled(self):
        tel = telemetry()
        for i in range(5):
            base = i * 1.0
            for stage, start, end in (
                ("compress", base, base + 0.5),
                ("send", base + 0.6, base + 0.7),  # 0.1 wait
                ("recv", base + 0.7, base + 0.8),
            ):
                tel.record_span(stage, start, end, stream_id="s", chunk_id=i)
        return tel

    def test_summary_service_times(self):
        summary = self._filled().pipeline_report("s").stages
        assert summary["compress"].service.mean == pytest.approx(0.5)
        assert summary["send"].queue_wait.mean == pytest.approx(0.1)
        assert summary["recv"].queue_wait.mean == pytest.approx(0.0)
        assert summary["compress"].chunks == 5

    def test_bottleneck_is_longest_service(self):
        assert self._filled().pipeline_report("s").bottleneck == "compress"

    def test_bottleneck_empty(self):
        assert telemetry().pipeline_report("s").bottleneck is None

    def test_report_renders(self):
        text = self._filled().pipeline_report("s").render()
        assert "bottleneck stage: compress" in text
        assert "q-wait" in text


class TestRuntimeIntegration:
    def test_traced_pipeline_identifies_compression_bottleneck(self):
        from repro.core.config import ScenarioConfig, StageConfig, StreamConfig
        from repro.core.params import APS_LAN_PATH
        from repro.core.placement import PlacementSpec
        from repro.core.runtime import SimRuntime
        from repro.hw.presets import lynxdtn_spec, updraft_spec

        stream = StreamConfig(
            stream_id="t",
            sender="updraft1",
            receiver="lynxdtn",
            path="aps-lan",
            num_chunks=40,
            source_socket=0,
            compress=StageConfig(2, PlacementSpec.socket(0)),  # starved
            send=StageConfig(4, PlacementSpec.socket(1)),
            recv=StageConfig(4, PlacementSpec.socket(1)),
            decompress=StageConfig(8, PlacementSpec.split([0, 1])),
        )
        rt = SimRuntime(
            ScenarioConfig(
                name="trace-test",
                machines={"updraft1": updraft_spec(), "lynxdtn": lynxdtn_spec()},
                paths={"aps-lan": APS_LAN_PATH},
                streams=[stream],
            ),
            telemetry=True,
        )
        rt.run()
        spans = rt.telemetry.spans
        # Every chunk traced through all five spans (4 stages + wire).
        assert {s.chunk_id for s in spans.for_stream("t")} == set(range(40))
        assert len(spans.for_chunk("t", 0)) == 5
        report = rt.telemetry.pipeline_report("t")
        # With 2 compression threads the bottleneck must be compression.
        assert report.bottleneck == "compress"
        # Downstream stages accumulate queue wait; compression does not
        # (it is never starved by its dispatcher).
        assert report.stages["send"].queue_wait.n > 0
