"""Telemetry parity: sim and live runs share one observability surface."""

import numpy as np
import pytest

from repro.core.generator import ConfigGenerator, StreamRequest, Workload
from repro.core.runtime import SimRuntime
from repro.data.chunking import Chunk
from repro.experiments.base import paper_testbed
from repro.live.runtime import LiveConfig, LivePipeline
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

LIVE_STAGES = {"feed", "compress", "send", "recv", "decompress"}


def payload_chunks(n=6, size=4096, stream="s1", seed=0):
    rng = make_rng(seed, "telemetry-e2e")
    for i in range(n):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        yield Chunk(stream_id=stream, index=i, nbytes=size, payload=data)


@pytest.fixture(scope="module")
def live_tel():
    tel = Telemetry()
    report = LivePipeline(LiveConfig(codec="zlib"), telemetry=tel).run(
        payload_chunks()
    )
    assert report.ok, report.errors
    return tel


@pytest.fixture(scope="module")
def sim_runtime():
    workload = Workload(
        [StreamRequest("det1", "updraft1", "lynxdtn", "aps-lan", num_chunks=6)],
        name="telemetry-e2e",
        seed=7,
    )
    scenario = ConfigGenerator(paper_testbed()).generate(workload)
    runtime = SimRuntime(scenario, telemetry=True)
    runtime.run()
    return runtime


class TestMetricNameParity:
    def test_pipeline_and_transport_families_identical(self, live_tel,
                                                       sim_runtime):
        prefix = ("pipeline_", "transport_")
        live_names = {
            n for n in live_tel.registry.names() if n.startswith(prefix)
        }
        sim_names = {
            n
            for n in sim_runtime.telemetry.registry.names()
            if n.startswith(prefix)
        }
        assert live_names == sim_names

    def test_live_names_subset_of_sim(self, live_tel, sim_runtime):
        # sim adds its resource-model families on top of the shared set
        assert set(live_tel.registry.names()) <= set(
            sim_runtime.telemetry.registry.names()
        )

    def test_both_count_every_chunk(self, live_tel, sim_runtime):
        for tel in (live_tel, sim_runtime.telemetry):
            chunks = tel.registry.get("pipeline_chunks_total")
            per_stage = {s.labels[0]: s.value for s in chunks.series()}
            assert all(v == 6 for v in per_stage.values()), per_stage

    def test_both_moved_transport_frames(self, live_tel, sim_runtime):
        for tel in (live_tel, sim_runtime.telemetry):
            frames = tel.registry.get("transport_frames_total")
            dirs = {s.labels[0] for s in frames.series()}
            assert dirs == {"tx", "rx"}


class TestLiveTrace:
    def test_span_per_stage(self, live_tel):
        assert live_tel.spans.stages() == LIVE_STAGES

    def test_chrome_trace_has_span_per_stage(self, live_tel):
        doc = live_tel.chrome_trace()
        stages = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert stages == LIVE_STAGES

    def test_queue_gauges_published(self, live_tel):
        depth = live_tel.registry.get("pipeline_queue_depth")
        queues = {s.labels[0] for s in depth.series()}
        assert queues == {"rawq", "sendq", "wireq"}

    def test_report_covers_all_stages(self, live_tel):
        report = live_tel.pipeline_report()
        assert set(report.stages) == LIVE_STAGES
        assert report.bottleneck in LIVE_STAGES


class TestSimBottleneckParity:
    def test_report_uses_own_stream_threads(self):
        """Two streams sized differently: each stream's report divides
        its busy time by its *own* thread count.  The facade used to
        keep one run-wide dict, so stream ``a`` (24 compress threads)
        was reported against ``b``'s 6 — a busy fraction of 1.514."""
        import dataclasses

        workload = Workload(
            [
                StreamRequest("a", "updraft1", "lynxdtn", "aps-lan",
                              num_chunks=30),
                StreamRequest("b", "updraft2", "lynxdtn", "aps-lan",
                              num_chunks=30),
            ],
            name="two-streams",
            seed=7,
        )
        scenario = ConfigGenerator(paper_testbed()).generate(workload)
        b = scenario.streams[1]
        scenario.streams[1] = dataclasses.replace(
            b, compress=dataclasses.replace(b.compress, count=6)
        )
        runtime = SimRuntime(scenario, telemetry=True)
        runtime.run()
        reports = {
            sid: runtime.telemetry.pipeline_report(sid) for sid in "ab"
        }
        assert reports["a"].thread_counts["compress"] == 24
        assert reports["b"].thread_counts["compress"] == 6
        for report in reports.values():
            for stage, util in report.stage_utilization().items():
                assert 0.0 <= util <= 1.0, (report.stream_id, stage, util)
        assert reports["a"].stage_utilization()["compress"] == pytest.approx(
            0.379, abs=5e-4
        )
        assert reports["b"].stage_utilization()["compress"] == pytest.approx(
            0.833, abs=5e-4
        )

    def test_same_span_population(self, sim_runtime):
        # One span per chunk per stage (wire included), nothing else.
        tel = sim_runtime.telemetry
        stages = tel.pipeline_report("det1").stages
        assert len(tel.spans) == 6 * len(stages)
        assert all(agg.chunks == 6 for agg in stages.values())

    def test_virtual_clock_spans(self, sim_runtime):
        # spans carry sim time, which starts at 0 — wall clock would be
        # ~1.7e9 seconds
        spans = sim_runtime.telemetry.spans.snapshot()
        assert spans
        assert max(s.end for s in spans) < 1e6
