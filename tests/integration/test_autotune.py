"""Closed-loop autotuning end to end, on both substrates.

The same :class:`repro.control.Controller` runs in three places here:

- on the simulator's virtual clock, where a starved compress stage is
  diagnosed from watchdog backpressure and scaled up mid-run — and
  where the whole decision trace is deterministic under a fixed seed;
- on the live thread pipeline, where the identical signals drive a
  :class:`~repro.control.StageSetExecutor` over real worker threads;
- (in the chaos job) on the process pipeline, where a stall diagnosis
  triggers drain-and-respawn of the compressor processes while
  exactly-once delivery holds.
"""

import threading

import numpy as np
import pytest

from repro.control import Controller
from repro.core.config import ScenarioConfig, StageConfig, StreamConfig
from repro.core.params import APS_LAN_PATH
from repro.core.placement import PlacementSpec
from repro.core.runtime import SimRuntime
from repro.data.chunking import Chunk
from repro.hw.presets import lynxdtn_spec, updraft_spec
from repro.live.runtime import LiveConfig, LivePipeline
from repro.obs.events import EventBus
from repro.obs.watchdog import Watchdog, WatchdogConfig
from repro.plan.ir import ControlNode
from repro.telemetry import Telemetry
from repro.util.rng import make_rng


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------


def starved_scenario(**kw):
    """One stream whose compress stage is deliberately undersized."""
    stream = StreamConfig(
        stream_id="s",
        sender="updraft1",
        receiver="lynxdtn",
        path="aps-lan",
        num_chunks=200,
        queue_capacity=8,
        compress=StageConfig(1, PlacementSpec.socket(0)),
        send=StageConfig(2, PlacementSpec.socket(1)),
        recv=StageConfig(2, PlacementSpec.socket(1)),
        decompress=StageConfig(4, PlacementSpec.split([0, 1])),
    )
    defaults = dict(
        name="autotune-sim",
        machines={"updraft1": updraft_spec(), "lynxdtn": lynxdtn_spec()},
        paths={"aps-lan": APS_LAN_PATH},
        streams=[stream],
        warmup_chunks=5,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


WATCHDOG = dict(
    interval=0.05,
    backpressure_depth=6.0,
    backpressure_after=0.1,
    bottleneck_every=0,
)

CONTROL = ControlNode(
    enabled=True, interval=0.05, cooldown=0.2, max_workers=4
)


def run_sim(scenario=None):
    tel = Telemetry()
    bus = EventBus(source="sim")
    tel.attach_events(bus)
    controller = Controller(tel, CONTROL)
    runtime = SimRuntime(
        scenario or starved_scenario(),
        telemetry=tel,
        watchdog=WatchdogConfig(**WATCHDOG),
        controller=controller,
    )
    result = runtime.run()
    return result, runtime, controller, bus


class TestSimClosedLoop:
    def test_controller_scales_starved_compress(self):
        result, runtime, controller, bus = run_sim()
        assert result.ok
        assert result.streams["s"].chunks_delivered == 200
        # The loop closed: backpressure was seen, a re-plan proposed
        # and applied, and the running stage set actually grew.
        assert controller.decisions, "controller never acted"
        assert controller.decisions[0] == "scale compress -> x2"
        assert runtime.sim_stages[("s", "compress")].count >= 2
        kinds = [e.kind for e in bus.recent(0)]
        assert "backpressure" in kinds
        assert "replan_proposed" in kinds
        assert "replan_applied" in kinds
        assert runtime.telemetry.counter_value(
            "repro_controller_applied_total", action="scale"
        ) >= 1

    def test_decision_trace_is_deterministic(self):
        """Same seed -> byte-identical decision trace and replan story."""

        def replans(bus):
            return [
                (e.ts, e.kind, e.message)
                for e in bus.recent(0)
                if e.kind.startswith("replan_")
            ]

        a_result, _, a_ctl, a_bus = run_sim()
        b_result, _, b_ctl, b_bus = run_sim()
        assert a_ctl.decisions == b_ctl.decisions
        assert replans(a_bus) == replans(b_bus)
        assert a_result.sim_time == b_result.sim_time

    def test_disabled_controller_leaves_plan_static(self):
        tel = Telemetry()
        bus = EventBus(source="sim")
        tel.attach_events(bus)
        runtime = SimRuntime(
            starved_scenario(),
            telemetry=tel,
            watchdog=WatchdogConfig(**WATCHDOG),
        )
        result = runtime.run()
        assert result.ok
        assert runtime.sim_stages[("s", "compress")].count == 1
        assert "replan_applied" not in [e.kind for e in bus.recent(0)]

    def test_scale_up_bounded_by_placement_slots(self):
        """A cores-pinned stage may not grow past 2 workers/core (Obs
        2): once the one-core compress placement is saturated the
        controller stops stacking workers onto the same core."""
        from repro.hw.topology import CoreId

        scenario = starved_scenario()
        stream = scenario.streams[0]
        stream.compress = StageConfig(
            1, PlacementSpec.pinned([CoreId(0, 0)])
        )
        result, runtime, controller, _ = run_sim(scenario)
        assert result.ok
        assert runtime.sim_stages[("s", "compress")].count == 2
        assert controller.decisions[0] == "scale compress -> x2"

    def test_autotuned_beats_static_on_sim_time(self):
        """The autotune acceptance bar, whole: the loop closes, the
        closed-loop run beats the stale plan by >= 1.2x delivered
        throughput, and after the last re-plan it runs within 10% of
        the plan a planner with hindsight would have written (compress
        already at the controller's ceiling)."""

        def gbps(result):
            return result.streams["s"].delivered_gbps

        static = SimRuntime(starved_scenario()).run()
        tuned, _, controller, bus = run_sim()
        hindsight = starved_scenario()
        hindsight.streams[0].compress = StageConfig(
            CONTROL.max_workers, PlacementSpec.socket(0)
        )
        optimal = SimRuntime(hindsight).run()

        assert controller.decisions
        assert tuned.sim_time < static.sim_time
        replans = [e for e in bus.recent(0) if e.kind == "replan_applied"]
        assert replans, "no replan_applied fired: the loop never closed"
        assert gbps(tuned) >= 1.2 * gbps(static)
        # Steady state: chunks the final stage finished after the last
        # applied re-plan, over the remaining virtual time.
        last = replans[-1].ts
        tail = [
            s
            for s in tuned.telemetry.spans.snapshot()
            if s.stage == "decompress" and s.end > last
        ]
        chunk_bytes = hindsight.streams[0].chunk_bytes
        post_gbps = len(tail) * chunk_bytes * 8 / (tuned.sim_time - last) / 1e9
        assert post_gbps >= 0.9 * gbps(optimal)


# ---------------------------------------------------------------------------
# live thread pipeline
# ---------------------------------------------------------------------------


def payload_chunks(n, size, seed=0):
    rng = make_rng(seed, "autotune-live")
    for i in range(n):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        yield Chunk(stream_id="s", index=i, nbytes=size, payload=data)


class TestLiveClosedLoop:
    def test_backpressure_scales_live_compress(self):
        tel = Telemetry()
        bus = EventBus(source="live")
        tel.attach_events(bus)
        controller = Controller(
            tel,
            ControlNode(
                enabled=True, interval=0.02, cooldown=0.1, max_workers=4
            ),
        )
        received = {}
        lock = threading.Lock()

        def sink(stream_id, index, data):
            with lock:
                received[index] = len(data)

        with Watchdog(
            tel,
            WatchdogConfig(
                interval=0.02,
                stall_after=60.0,
                backpressure_depth=4.0,
                backpressure_after=0.04,
                bottleneck_every=0,
            ),
        ):
            pipe = LivePipeline(
                LiveConfig(
                    codec="zlib:level=9",
                    compress_threads=1,
                    decompress_threads=2,
                    queue_capacity=8,
                ),
                telemetry=tel,
                controller=controller,
            )
            report = pipe.run(
                payload_chunks(80, 256 * 1024), sink=sink
            )

        assert report.ok, report.errors
        assert report.chunks == 80
        # Exactly-once through the reconfiguration: every index, once.
        assert sorted(received) == list(range(80))
        # The loop closed against real threads.
        assert controller.decisions, "controller never acted"
        assert any(
            d.startswith("scale compress") for d in controller.decisions
        )
        assert "replan_applied" in [e.kind for e in bus.recent(0)]
