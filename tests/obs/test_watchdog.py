"""Watchdog detection logic, driven deterministically on a ManualClock."""

import time

import pytest

from repro.obs.events import EventBus
from repro.obs.watchdog import Watchdog, WatchdogConfig
from repro.telemetry import Telemetry
from tests.manual_clock import ManualClock


def make(config=None, **cfg_kw):
    clock = ManualClock()
    tel = Telemetry(clock=clock)
    bus = EventBus(source="test")
    tel.attach_events(bus)
    dog = Watchdog(tel, config or WatchdogConfig(**cfg_kw))
    return tel, clock, bus, dog


class TestConfig:
    def test_defaults(self):
        cfg = WatchdogConfig()
        assert cfg.interval == 0.25
        assert cfg.stall_after == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(interval=0)
        with pytest.raises(ValueError):
            WatchdogConfig(stall_after=-1)


class TestStalls:
    def test_silent_worker_is_stalled(self):
        tel, clock, bus, dog = make(stall_after=1.0)
        tel.heartbeat("compress-0")
        clock.advance(2.0)
        events = dog.poll()
        assert [e.kind for e in events] == ["stage_stall"]
        assert events[0].severity == "warning"
        assert events[0].fields["worker"] == "compress-0"
        assert events[0].fields["stage"] == "compress"
        assert events[0].fields["age_s"] == pytest.approx(2.0)
        assert tel.counter_value("repro_watchdog_stalls_total",
                                 worker="compress-0") == 1

    def test_no_realert_on_same_silence(self):
        tel, clock, bus, dog = make(stall_after=1.0)
        tel.heartbeat("recv-0")
        clock.advance(2.0)
        assert len(dog.poll()) == 1
        clock.advance(5.0)
        assert dog.poll() == []  # same silence, already announced
        assert tel.counter_value("repro_watchdog_stalls_total",
                                 worker="recv-0") == 1

    def test_resume_clears_then_new_stall_realerts(self):
        tel, clock, bus, dog = make(stall_after=1.0)
        tel.heartbeat("send-0")
        clock.advance(2.0)
        dog.poll()
        tel.heartbeat("send-0")  # worker resumes
        cleared = dog.poll()
        assert [e.kind for e in cleared] == ["stall_cleared"]
        clock.advance(2.0)  # a *fresh* beat goes silent again
        again = dog.poll()
        assert [e.kind for e in again] == ["stage_stall"]
        assert tel.counter_value("repro_watchdog_stalls_total",
                                 worker="send-0") == 2

    def test_fresh_worker_not_stalled(self):
        tel, clock, bus, dog = make(stall_after=1.0)
        tel.heartbeat("compress-0")
        clock.advance(0.5)
        assert dog.poll() == []

    def test_poll_counter_always_bumps(self):
        tel, clock, bus, dog = make()
        dog.poll()
        dog.poll()
        assert tel.counter_value("repro_watchdog_polls_total") == 2


class TestBackpressure:
    def test_sustained_depth_alerts_once(self):
        tel, clock, bus, dog = make(
            backpressure_depth=8.0, backpressure_after=1.0
        )
        tel.queue_gauge("sendq").set(10)
        assert dog.poll() == []  # first sighting starts the timer
        clock.advance(1.0)
        events = dog.poll()
        assert [e.kind for e in events] == ["backpressure"]
        assert events[0].fields["queue"] == "sendq"
        assert events[0].fields["depth"] == 10
        clock.advance(1.0)
        assert dog.poll() == []  # still deep, already announced
        assert tel.counter_value("repro_watchdog_backpressure_total",
                                 queue="sendq") == 1

    def test_drain_resets_detection(self):
        tel, clock, bus, dog = make(
            backpressure_depth=8.0, backpressure_after=1.0
        )
        gauge = tel.queue_gauge("sendq")
        gauge.set(12)
        dog.poll()
        clock.advance(1.0)
        dog.poll()  # alerts
        gauge.set(2)
        dog.poll()  # drained: state resets
        gauge.set(12)
        dog.poll()
        clock.advance(1.0)
        events = dog.poll()
        assert [e.kind for e in events] == ["backpressure"]
        assert tel.counter_value("repro_watchdog_backpressure_total",
                                 queue="sendq") == 2

    def test_shallow_queue_never_alerts(self):
        tel, clock, bus, dog = make(backpressure_depth=8.0)
        tel.queue_gauge("sendq").set(3)
        for _ in range(5):
            clock.advance(1.0)
            assert dog.poll() == []

    def test_hysteresis_band_keeps_alert_latched(self):
        """Oscillation around the threshold must not re-fire the alert.

        Regression: the old two-way check treated any dip below the
        threshold as a full drain, so depth bouncing 10 -> 7 -> 10
        re-alerted every cycle.  The
        alert must stay latched until depth reaches clear_ratio*depth.
        """
        tel, clock, bus, dog = make(
            backpressure_depth=8.0,
            backpressure_after=1.0,
            backpressure_clear_ratio=0.5,
        )
        gauge = tel.queue_gauge("sendq")
        gauge.set(10)
        dog.poll()
        clock.advance(1.0)
        assert [e.kind for e in dog.poll()] == ["backpressure"]
        for _ in range(3):  # bounce inside the band (4 < depth < 8)
            gauge.set(7)
            dog.poll()
            gauge.set(10)
            dog.poll()
            clock.advance(1.0)
            assert dog.poll() == []  # latched: no re-alert
        assert tel.counter_value("repro_watchdog_backpressure_total",
                                 queue="sendq") == 1

    def test_rearm_only_below_clear_threshold(self):
        tel, clock, bus, dog = make(
            backpressure_depth=8.0,
            backpressure_after=1.0,
            backpressure_clear_ratio=0.5,
        )
        gauge = tel.queue_gauge("sendq")
        gauge.set(10)
        dog.poll()
        clock.advance(1.0)
        dog.poll()  # alerts
        gauge.set(4)  # == clear threshold: a real drain, re-arms
        dog.poll()
        gauge.set(10)
        dog.poll()
        clock.advance(1.0)
        assert [e.kind for e in dog.poll()] == ["backpressure"]
        assert tel.counter_value("repro_watchdog_backpressure_total",
                                 queue="sendq") == 2

    def test_band_dip_resets_sustain_timer(self):
        """Pre-alert, a dip into the band restarts the sustain clock."""
        tel, clock, bus, dog = make(
            backpressure_depth=8.0,
            backpressure_after=1.0,
            backpressure_clear_ratio=0.5,
        )
        gauge = tel.queue_gauge("sendq")
        gauge.set(10)
        dog.poll()  # timer starts
        clock.advance(0.6)
        gauge.set(6)  # band dip before the sustain elapsed
        dog.poll()
        gauge.set(10)
        dog.poll()  # timer restarts here
        clock.advance(0.6)
        assert dog.poll() == []  # only 0.6s since the restart
        clock.advance(0.5)
        assert [e.kind for e in dog.poll()] == ["backpressure"]

    def test_clear_ratio_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(backpressure_clear_ratio=0.0)
        with pytest.raises(ValueError):
            WatchdogConfig(backpressure_clear_ratio=1.5)


class TestBottleneck:
    def test_shift_announced_on_schedule(self):
        tel, clock, bus, dog = make(bottleneck_every=2, stall_after=100.0)
        # Make compress the bottleneck, then shift it to send.
        tel.record_span("compress", 0.0, 1.0, stream_id="s", chunk_id=0)
        tel.record_span("send", 0.0, 0.1, stream_id="s", chunk_id=0)
        dog.poll()
        assert dog.poll() == []  # first computation just latches
        tel.record_span("send", 1.0, 9.0, stream_id="s", chunk_id=1)
        dog.poll()
        events = dog.poll()
        assert [e.kind for e in events] == ["bottleneck_shift"]
        assert events[0].fields == {"previous": "compress",
                                    "bottleneck": "send"}
        assert tel.counter_value(
            "repro_watchdog_bottleneck_shifts_total"
        ) == 1

    def test_disabled_when_zero(self):
        tel, clock, bus, dog = make(bottleneck_every=0, stall_after=100.0)
        tel.record_span("compress", 0.0, 1.0, stream_id="s", chunk_id=0)
        for _ in range(8):
            assert dog.poll() == []


class TestEventsOptional:
    def test_counters_still_bump_without_bus(self):
        clock = ManualClock()
        tel = Telemetry(clock=clock)  # no EventBus attached
        dog = Watchdog(tel, WatchdogConfig(stall_after=1.0))
        tel.heartbeat("compress-0")
        clock.advance(2.0)
        assert dog.poll() == []  # nothing to return without a bus...
        assert tel.counter_value("repro_watchdog_stalls_total",
                                 worker="compress-0") == 1  # ...but counted


class TestLiveThread:
    def test_start_stop_polls_on_wall_clock(self):
        tel = Telemetry()
        bus = EventBus()
        tel.attach_events(bus)
        with Watchdog(tel, WatchdogConfig(interval=0.02)):
            time.sleep(0.15)
        assert tel.counter_value("repro_watchdog_polls_total") >= 2
