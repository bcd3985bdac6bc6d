"""EventBus: ring semantics, sinks, filters, and the stdlib log bridge."""

import json
import logging
import threading

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    SEVERITIES,
    Event,
    EventBus,
    EventLogHandler,
    severity_for_level,
)


class TestEvent:
    def test_to_dict_flattens_fields(self):
        ev = Event(ts=1.5, kind="run_start", message="go",
                   fields={"runner": "test", "ok": True})
        d = ev.to_dict()
        assert d["ts"] == 1.5
        assert d["kind"] == "run_start"
        assert d["runner"] == "test"
        assert d["ok"] is True

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Event(ts=0.0, kind="log", severity="catastrophic")

    def test_kind_catalogue_is_stable(self):
        # Both substrates emit these; renames break the event schema.
        for kind in ("run_start", "run_end", "transport_retry",
                     "fault_injected", "stage_stall", "stall_cleared",
                     "backpressure", "bottleneck_shift", "log"):
            assert kind in EVENT_KINDS


class TestEventBus:
    def test_emit_defaults_and_returns_event(self):
        bus = EventBus(source="test")
        ev = bus.emit("run_start", "hello", worker="w0")
        assert ev.source == "test"
        assert ev.severity == "info"
        assert ev.ts > 0  # wall epoch default
        assert ev.fields == {"worker": "w0"}

    def test_explicit_ts_and_source_override(self):
        bus = EventBus(source="sim")
        ev = bus.emit("stage_stall", ts=12.5, source="elsewhere")
        assert ev.ts == 12.5
        assert ev.source == "elsewhere"

    def test_ring_keeps_newest(self):
        bus = EventBus(capacity=3)
        for i in range(10):
            bus.emit("log", str(i))
        assert len(bus) == 3
        assert [e.message for e in bus.recent()] == ["7", "8", "9"]
        assert bus.emitted == 10  # overflow never resets the total

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventBus(capacity=0)

    def test_recent_filters(self):
        bus = EventBus()
        bus.emit("log", "a", severity="debug")
        bus.emit("stage_stall", "b", severity="warning")
        bus.emit("log", "c", severity="error")
        assert [e.message for e in bus.recent(kind="log")] == ["a", "c"]
        assert [e.message for e in bus.recent(min_severity="warning")] == [
            "b", "c"
        ]
        assert [e.message for e in bus.recent(1)] == ["c"]

    def test_counts_by_kind(self):
        bus = EventBus()
        bus.emit("log")
        bus.emit("log")
        bus.emit("run_end")
        assert bus.counts() == {"log": 2, "run_end": 1}

    def test_jsonl_sink_sees_every_emission(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventBus(capacity=2, jsonl_path=str(path)) as bus:
            for i in range(5):
                bus.emit("log", str(i), seq=i)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # sink is complete even when the ring isn't
        parsed = [json.loads(line) for line in lines]
        assert [p["seq"] for p in parsed] == list(range(5))
        assert all(p["kind"] == "log" for p in parsed)

    def test_close_is_idempotent_and_ring_survives(self, tmp_path):
        bus = EventBus(jsonl_path=str(tmp_path / "e.jsonl"))
        bus.emit("run_start")
        bus.close()
        bus.close()
        assert len(bus.recent()) == 1


class TestConcurrentEmit:
    THREADS = 8
    PER_THREAD = 200

    def _hammer(self, bus):
        def emitter(tid: int) -> None:
            for i in range(self.PER_THREAD):
                bus.emit("log", f"{tid}:{i}", tid=tid, seq=i)

        threads = [
            threading.Thread(target=emitter, args=(t,))
            for t in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_emitted_vs_len_accounting_under_overflow(self):
        total = self.THREADS * self.PER_THREAD
        bus = EventBus(capacity=64)
        self._hammer(bus)
        assert bus.emitted == total  # every emission counted...
        assert len(bus) == 64  # ...even though the ring overflowed

    def test_jsonl_sink_complete_and_per_thread_ordered(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus(capacity=16, jsonl_path=str(path))
        self._hammer(bus)
        bus.close()
        lines = path.read_text().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == self.THREADS * self.PER_THREAD
        # Emission order is serialized under the bus lock, so each
        # thread's events appear in its own program order.
        per_thread: dict[int, list[int]] = {}
        for p in parsed:
            per_thread.setdefault(p["tid"], []).append(p["seq"])
        for tid, seqs in per_thread.items():
            assert seqs == sorted(seqs), f"thread {tid} out of order"


class TestLogBridge:
    def test_severity_mapping(self):
        assert severity_for_level(logging.DEBUG) == "debug"
        assert severity_for_level(logging.INFO) == "info"
        assert severity_for_level(logging.WARNING) == "warning"
        assert severity_for_level(logging.ERROR) == "error"
        assert severity_for_level(logging.CRITICAL) == "error"

    def test_handler_routes_records(self):
        bus = EventBus()
        logger = logging.getLogger("repro.test.obs.bridge")
        logger.setLevel(logging.DEBUG)
        handler = EventLogHandler(bus)
        logger.addHandler(handler)
        try:
            logger.warning("queue %s is deep", "sendq")
        finally:
            logger.removeHandler(handler)
        (ev,) = bus.recent(kind="log")
        assert ev.message == "queue sendq is deep"
        assert ev.severity == "warning"
        assert ev.fields["logger"] == "repro.test.obs.bridge"

    def test_severities_ordered(self):
        assert SEVERITIES == ("debug", "info", "warning", "error")
