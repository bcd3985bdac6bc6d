"""Controller unit tests: diagnosis, damping, rejection, bookkeeping.

Everything runs on a ManualClock against a fake Reconfigurable, so each
test drives exactly one control cycle at a time — the same discipline
as the watchdog tests.
"""

import pytest

from repro.control import Controller
from repro.obs.events import EventBus
from repro.plan.delta import PlanDelta, ScaleStage
from repro.plan.ingest import plan_from_scenario
from repro.plan.ir import ControlNode
from repro.telemetry import Telemetry
from repro.telemetry.clock import ManualClock


class FakeExecutor:
    """An in-memory Reconfigurable with scripted refusals."""

    def __init__(self):
        self.counts = {("", "compress"): 2, ("", "decompress"): 2}
        self.consumers = {"sendq": ("", "compress"), "wireq": ("", "decompress")}
        self.scalable = {("", "compress"), ("", "decompress")}
        self.respawned: list[tuple[str, str]] = []
        self.refuse_scale = False
        self.refuse_respawn = False

    def queue_consumer(self, queue):
        return self.consumers.get(queue)

    def stage_count(self, stream, stage):
        return self.counts.get((stream, stage))

    def can_scale(self, stream, stage):
        return (stream, stage) in self.scalable

    def scale_stage(self, stream, stage, count):
        if self.refuse_scale:
            return False
        self.counts[(stream, stage)] = count
        return True

    def respawn_stage(self, stream, stage):
        if self.refuse_respawn:
            return False
        self.respawned.append((stream, stage))
        return True


def make(node=None, *, bind=True, plan=None, **node_kw):
    clock = ManualClock()
    tel = Telemetry(clock=clock)
    bus = EventBus(source="test")
    tel.attach_events(bus)
    node = node or ControlNode(enabled=True, cooldown=0.0, **node_kw)
    ctl = Controller(tel, node, plan=plan)
    ex = FakeExecutor()
    if bind:
        ctl.bind(ex)
    return tel, clock, bus, ctl, ex


class TestDiagnosisPriority:
    def test_idle_bus_means_no_action(self):
        tel, clock, bus, ctl, ex = make()
        assert ctl.poll() == []
        assert tel.counter_value("repro_controller_polls_total") == 1

    def test_backpressure_scales_the_consumer(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq", depth=12)
        events = ctl.poll()
        assert [e.kind for e in events] == [
            "replan_proposed", "replan_applied"
        ]
        assert ex.counts[("", "compress")] == 3
        assert ctl.decisions == ["scale compress -> x3"]

    def test_stall_beats_backpressure(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq")
        bus.emit("stage_stall", worker="compress-0", stage="compress")
        ctl.poll()
        assert ex.respawned == [("", "compress")]
        assert ex.counts[("", "compress")] == 2  # scale didn't run

    def test_shift_scales_the_new_bottleneck(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("bottleneck_shift", previous="compress",
                 bottleneck="decompress")
        ctl.poll()
        assert ex.counts[("", "decompress")] == 3

    def test_shift_to_unscalable_stage_ignored(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("bottleneck_shift", previous="compress", bottleneck="send")
        assert ctl.poll() == []

    def test_one_action_per_cycle(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq")
        bus.emit("backpressure", queue="wireq")
        ctl.poll()
        # Only the first (sorted) queue's consumer grew this cycle.
        grown = [k for k, v in ex.counts.items() if v == 3]
        assert len(grown) == 1

    def test_unknown_queue_is_skipped(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="mystery")
        assert ctl.poll() == []


class TestBackpressureWithoutALever:
    def test_unscalable_or_capped_consumer_gets_no_action(self):
        """Backpressure on a consumer that cannot scale, or is already
        at ``max_workers``, is the watchdog's report alone: nothing is
        proposed, nothing changes."""
        tel, clock, bus, ctl, ex = make(max_workers=2)
        ex.scalable.discard(("", "decompress"))  # wireq's consumer
        # sendq's consumer, compress, already runs max_workers=2.
        bus.emit("backpressure", queue="sendq")
        bus.emit("backpressure", queue="wireq")
        assert ctl.poll() == []
        assert ex.counts == {("", "compress"): 2, ("", "decompress"): 2}
        assert ctl.decisions == []
        assert not bus.recent(kind="replan_proposed")


class TestCooldown:
    def test_applied_actions_are_damped(self):
        tel, clock, bus, ctl, ex = make(
            ControlNode(enabled=True, cooldown=5.0)
        )
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        assert ex.counts[("", "compress")] == 3
        bus.emit("backpressure", queue="sendq")
        assert ctl.poll() == []  # inside the cooldown window
        clock.advance(5.0)
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        assert ex.counts[("", "compress")] == 4

    def test_cooldown_still_drains_the_bus(self):
        tel, clock, bus, ctl, ex = make(
            ControlNode(enabled=True, cooldown=100.0)
        )
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        bus.emit("backpressure", queue="sendq")
        ctl.poll()  # damped, but the cursor advanced
        clock.advance(100.0)
        assert ctl.poll() == []  # old signal was consumed, not replayed


class TestRejection:
    def test_runtime_refusal_emits_rejected(self):
        tel, clock, bus, ctl, ex = make()
        ex.refuse_scale = True
        bus.emit("backpressure", queue="sendq")
        events = ctl.poll()
        assert [e.kind for e in events] == [
            "replan_proposed", "replan_rejected"
        ]
        assert events[1].severity == "warning"
        assert tel.counter_value("repro_controller_rejected_total",
                                 action="scale") == 1
        assert ctl.decisions == []

    def test_plan_validation_gate(self, hand_scenario):
        plan = plan_from_scenario(hand_scenario())
        tel, clock, bus, ctl, ex = make(plan=plan)
        # A runtime reporting a nonsense count proposes count 0, which
        # fails the plan's validate pass -> rejected before the runtime
        # is touched (the gate, not the executor, stops it).
        ex.counts[("", "compress")] = -1
        bus.emit("backpressure", queue="sendq")
        events = ctl.poll()
        assert [e.kind for e in events] == [
            "replan_proposed", "replan_rejected"
        ]
        assert "must be >= 1" in events[1].message
        assert ex.counts[("", "compress")] == -1  # untouched

    def test_applied_delta_updates_tracked_plan(self, hand_scenario):
        from repro.core.config import StageKind

        plan = plan_from_scenario(hand_scenario())
        tel, clock, bus, ctl, ex = make(plan=plan)
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        node = ctl.plan.stream("s").stage(StageKind.COMPRESS)
        assert node.count == 3  # fake executor started compress at 2

    def test_refusal_does_not_update_plan(self, hand_scenario):
        from repro.core.config import StageKind

        plan = plan_from_scenario(hand_scenario())
        tel, clock, bus, ctl, ex = make(plan=plan)
        ex.refuse_scale = True
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        assert ctl.plan.stream("s").stage(StageKind.COMPRESS).count == 4


class TestScaleDown:
    def test_quiet_streak_returns_grown_stage(self):
        tel, clock, bus, ctl, ex = make(scale_down_after=2)
        bus.emit("backpressure", queue="sendq")
        ctl.poll()  # compress 2 -> 3
        assert ctl.poll() == []  # quiet 1
        events = ctl.poll()  # quiet 2 -> scale down
        assert [e.kind for e in events] == [
            "replan_proposed", "replan_applied"
        ]
        assert ex.counts[("", "compress")] == 2
        assert ctl.decisions == [
            "scale compress -> x3", "scale compress -> x2"
        ]

    def test_never_scales_below_baseline(self):
        tel, clock, bus, ctl, ex = make(scale_down_after=1)
        bus.emit("backpressure", queue="sendq")
        ctl.poll()  # grow to 3 (baseline 2)
        ctl.poll()  # quiet -> back to 2
        assert ex.counts[("", "compress")] == 2
        assert ctl.poll() == []  # at baseline: nothing to hand back
        assert ex.counts[("", "compress")] == 2

    def test_disabled_by_default(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        for _ in range(10):
            assert ctl.poll() == []
        assert ex.counts[("", "compress")] == 3

    def test_signal_resets_quiet_streak(self):
        tel, clock, bus, ctl, ex = make(scale_down_after=2)
        bus.emit("backpressure", queue="sendq")
        ctl.poll()  # grow to 3
        ctl.poll()  # quiet 1
        bus.emit("backpressure", queue="sendq")
        ctl.poll()  # signal again: streak resets (and grows to 4)
        assert ctl.poll() == []  # quiet 1, not 2
        assert ex.counts[("", "compress")] == 4


class TestCountersAndEvents:
    def test_counters_track_the_lifecycle(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        ex.refuse_scale = True
        bus.emit("backpressure", queue="sendq")
        ctl.poll()
        assert tel.counter_value("repro_controller_proposals_total",
                                 action="scale") == 2
        assert tel.counter_value("repro_controller_applied_total",
                                 action="scale") == 1
        assert tel.counter_value("repro_controller_rejected_total",
                                 action="scale") == 1

    def test_events_carry_the_delta_document(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("backpressure", queue="sendq", depth=12)
        proposed, applied = ctl.poll()
        assert proposed.fields["delta"]["ops"] == [{
            "op": "scale_stage", "stream": "", "stage": "compress",
            "count": 3,
        }]
        assert applied.fields["action"] == "scale"

    def test_unbound_controller_only_observes(self):
        tel, clock, bus, ctl, ex = make(bind=False)
        bus.emit("backpressure", queue="sendq")
        assert ctl.poll() == []
        assert tel.counter_value("repro_controller_polls_total") == 1

    def test_stall_delta_is_notes_only(self):
        tel, clock, bus, ctl, ex = make()
        bus.emit("stage_stall", worker="compress-0", stage="compress")
        proposed, applied = ctl.poll()
        assert proposed.fields["delta"]["ops"] == []
        assert "respawn compress workers" in str(
            proposed.fields["delta"]["notes"]
        )


class TestStreamMapping:
    def test_sim_worker_names_carry_the_stream(self):
        assert Controller._stream_of("s1.compress.0") == "s1"
        assert Controller._stream_of("compress-0") == ""

    def test_blank_stream_maps_to_plan_stream(self, hand_scenario):
        plan = plan_from_scenario(hand_scenario())
        tel, clock, bus, ctl, ex = make(plan=plan)
        bus.emit("backpressure", queue="sendq")
        proposed, applied = ctl.poll()
        # The live runtime says ""; the delta names the plan's stream.
        assert proposed.fields["delta"]["ops"][0]["stream"] == "s"
