"""Queue-occupancy reporting when telemetry is attached."""

import pytest

from repro.core.config import ScenarioConfig, StageConfig, StreamConfig
from repro.core.params import APS_LAN_PATH
from repro.core.placement import PlacementSpec
from repro.core.runtime import SimRuntime
from repro.hw.presets import lynxdtn_spec, updraft_spec


def runtime(telemetry, compress_threads=2):
    stream = StreamConfig(
        stream_id="q",
        sender="updraft1",
        receiver="lynxdtn",
        path="aps-lan",
        num_chunks=40,
        source_socket=0,
        compress=StageConfig(compress_threads, PlacementSpec.socket(0)),
        send=StageConfig(2, PlacementSpec.socket(1)),
        recv=StageConfig(2, PlacementSpec.socket(1)),
        decompress=StageConfig(4, PlacementSpec.split([0, 1])),
    )
    return SimRuntime(
        ScenarioConfig(
            name="q",
            machines={"updraft1": updraft_spec(), "lynxdtn": lynxdtn_spec()},
            paths={"aps-lan": APS_LAN_PATH},
            streams=[stream],
            warmup_chunks=5,
        ),
        telemetry=telemetry,
    )


class TestQueueReport:
    def test_untraced_report_empty(self):
        rt = runtime(telemetry=False)
        rt.run()
        assert rt.queue_report() == {}

    def test_bottleneck_input_queue_full(self):
        """With compression as the bottleneck, its input queue sits at
        capacity while downstream queues stay near-empty — textbook
        backpressure."""
        rt = runtime(telemetry=True, compress_threads=2)
        rt.run()
        report = rt.queue_report()
        assert report["q/q0"]["mean"] >= 3.0  # capacity 4, nearly full
        assert report["q/q-compress"]["mean"] <= 0.5
        assert report["q/q-recv"]["mean"] <= 0.5

    def test_pressure_moves_with_the_bottleneck(self):
        """With ample compression the backlog moves downstream: the
        compress→send queue fills (network is now the constraint) while
        it sat empty when compression was starved.  (The dispatcher is
        free, so the very first queue is always full — the signal lives
        in the queues *between* worker stages.)"""
        starved = runtime(telemetry=True, compress_threads=2)
        starved.run()
        ample = runtime(telemetry=True, compress_threads=16)
        ample.run()
        assert ample.queue_report()["q/q-compress"]["mean"] > (
            starved.queue_report()["q/q-compress"]["mean"] + 1.0
        )

    def test_depth_never_exceeds_capacity_plus_sentinels(self):
        rt = runtime(telemetry=True)
        rt.run()
        report = rt.queue_report()
        # Capacity 4 + force-put END sentinels (one per consumer).
        assert report["q/q0"]["max"] <= 4 + 2
