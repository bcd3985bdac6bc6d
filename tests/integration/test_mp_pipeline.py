"""ProcessPipeline end to end: parity with thread mode, stats, events.

Process mode moves only the compress stage across the process
boundary, so the receiver-side output must be byte-identical with the
thread pipeline on the same source.  These runs use the ``fork`` start
method to keep worker startup sub-second; the spawn path is covered by
the CLI smoke job (``scripts/mp_smoke.py``).
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.live.runtime import LiveConfig, LivePipeline
from repro.mp import ProcessPipeline
from repro.telemetry import Telemetry
from repro.util.errors import ValidationError
from repro.util.rng import make_rng

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode tests need the fork start method",
)

NUM_CHUNKS = 24
CHUNK_SIZE = 4096


def chunks(n=NUM_CHUNKS, stream="mp-s"):
    rng = make_rng(7, "mp-integration")
    for i in range(n):
        payload = rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes()
        yield Chunk(
            stream_id=stream, index=i, nbytes=CHUNK_SIZE, payload=payload
        )


def mixed_chunks(n=NUM_CHUNKS, stream="mp-s"):
    """Alternating noise / smooth payloads so adaptive actually switches."""
    rng = make_rng(7, "mp-integration")
    smooth = (np.arange(CHUNK_SIZE // 2, dtype=np.uint16) >> 4).tobytes()
    for i in range(n):
        if i % 2:
            payload = smooth
        else:
            payload = rng.integers(
                0, 256, CHUNK_SIZE, dtype=np.uint8
            ).tobytes()
        yield Chunk(
            stream_id=stream, index=i, nbytes=CHUNK_SIZE, payload=payload
        )


def config(**overrides):
    base = dict(
        codec="zlib",
        compress_threads=2,
        decompress_threads=1,
        connections=1,
        execution_mode="process",
        mp_start_method="fork",
    )
    base.update(overrides)
    return LiveConfig(**base)


class CapturingSink:
    def __init__(self):
        self.by_key = {}
        self._lock = threading.Lock()

    def __call__(self, stream_id, index, data):
        with self._lock:
            self.by_key[(stream_id, index)] = data


class TestParity:
    def test_process_mode_output_is_byte_identical_to_thread_mode(self):
        thread_sink = CapturingSink()
        thread_report = LivePipeline(
            config(execution_mode="thread")
        ).run(chunks(), sink=thread_sink)
        assert thread_report.ok, thread_report.errors

        process_sink = CapturingSink()
        process_report = ProcessPipeline(config()).run(
            chunks(), sink=process_sink
        )
        assert process_report.ok, process_report.errors

        assert process_sink.by_key == thread_sink.by_key
        assert process_report.chunks == thread_report.chunks == NUM_CHUNKS

    @pytest.mark.parametrize(
        "codec",
        [
            "bz2:level=1",
            "adaptive:allowed=zlib|null,probe_interval=4",
        ],
    )
    def test_parity_holds_for_non_default_codecs(self, codec):
        """The codec spec crosses the process boundary intact, and the
        per-frame wire ids (adaptive stamps the *chosen* codec) decode
        to the same bytes in both substrates."""
        source = list(mixed_chunks())
        thread_sink = CapturingSink()
        thread_report = LivePipeline(
            config(execution_mode="thread", codec=codec)
        ).run(iter(source), sink=thread_sink)
        assert thread_report.ok, thread_report.errors

        process_sink = CapturingSink()
        process_report = ProcessPipeline(config(codec=codec)).run(
            iter(source), sink=process_sink
        )
        assert process_report.ok, process_report.errors

        assert process_sink.by_key == thread_sink.by_key
        expected = {
            (c.stream_id, c.index): bytes(c.payload) for c in source
        }
        assert thread_sink.by_key == expected

    def test_multiple_streams_round_robin_across_domains(self):
        def two_streams():
            yield from chunks(8, stream="a")
            yield from chunks(8, stream="b")

        sink = CapturingSink()
        report = ProcessPipeline(config()).run(two_streams(), sink=sink)
        assert report.ok, report.errors
        assert report.chunks == 16
        assert {k[0] for k in sink.by_key} == {"a", "b"}


class TestAccounting:
    def test_compress_stats_are_booked_from_the_stamps(self):
        report = ProcessPipeline(config()).run(chunks())
        assert report.ok, report.errors
        comp = report.stage_stats["compress"]
        assert comp.chunks == NUM_CHUNKS
        assert comp.bytes_in == NUM_CHUNKS * CHUNK_SIZE
        assert 0 < comp.bytes_out <= comp.bytes_in + NUM_CHUNKS * 64
        assert comp.busy_seconds > 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_unverified_run_keeps_no_ledger(self, mode, monkeypatch):
        """``verify=False`` means no ``(stream, index)`` is held for the
        life of the run, in either execution mode."""
        from repro.live import runtime

        built = []

        class Recorded(runtime.Assembly):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runtime, "Assembly", Recorded)
        report = LivePipeline(config(execution_mode=mode, verify=False)).run(
            chunks()
        )
        assert report.ok, report.errors
        assert report.chunks == NUM_CHUNKS
        assert [asm.expected for asm in built] == [set()]

    def test_telemetry_names_process_workers_like_threads(self):
        tel = Telemetry()
        report = ProcessPipeline(config(), telemetry=tel).run(chunks())
        assert report.ok, report.errors
        beats = tel.heartbeats()
        assert "mp-feeder" in beats
        assert "mp-compress-0" in beats
        assert "mp-compress-1" in beats
        # Unpinned on hosts without affinity headroom — but the gauge
        # must exist either way, one sample per worker.
        affinity = tel.affinity_cpus()
        assert "mp-compress-0" in affinity
        assert "mp-compress-1" in affinity

    def test_process_workers_beat_on_the_telemetry_clock(self):
        """A worker's heartbeat is the end of its last compress span, on
        the clock /healthz and the watchdog read, so a silent compressor
        process goes stale exactly like a silent thread."""
        from repro.obs import EventBus
        from repro.obs.watchdog import Watchdog, WatchdogConfig

        tel = Telemetry()
        tel.attach_events(EventBus(source="live"))
        report = ProcessPipeline(
            config(process_domains=2), telemetry=tel
        ).run(chunks())
        assert report.ok, report.errors
        workers = {"mp-compress-0", "mp-compress-1"}
        now, beats = tel.clock.now(), tel.heartbeats()
        for worker in workers:
            assert 0 <= now - beats[worker] < 60, (worker, now, beats[worker])

        time.sleep(0.2)
        events = Watchdog(tel, WatchdogConfig(stall_after=0.1)).poll()
        stalled = {e.fields["worker"] for e in events if e.kind == "stage_stall"}
        assert workers <= stalled

    def test_non_telemetry_object_is_refused_at_the_door(self):
        """as_telemetry is the only door: past it the hot path calls
        Telemetry methods without probing for them, so a look-alike is
        refused before the run starts, not inside a collector."""

        class LookAlike:
            def record_chunk(self, stage, stream_id, nbytes):
                pass

        with pytest.raises(ValidationError, match="telemetry must be"):
            ProcessPipeline(config(), telemetry=LookAlike())

    def test_run_events_name_the_process_runner(self):
        from repro.obs import EventBus

        bus = EventBus(source="live")
        tel = Telemetry()
        tel.attach_events(bus)
        report = ProcessPipeline(config(), telemetry=tel).run(chunks())
        assert report.ok, report.errors
        starts = bus.recent(kind="run_start")
        ends = bus.recent(kind="run_end")
        assert any(
            e.fields.get("runner") == "ProcessPipeline"
            and e.fields.get("domains") == 2
            for e in starts
        )
        assert any(
            e.fields.get("runner") == "ProcessPipeline"
            and e.fields.get("ok") is True
            and e.fields.get("restarts") == 0
            for e in ends
        )


class TestFlowTracing:
    def test_traces_cross_the_process_boundary(self):
        """A sampled chunk's trace spans feeder, a compress worker in
        another process, the wire, and the receiver — the acceptance
        shape of PR 10 on the fork path (spawn is the CI smoke job)."""
        from repro.telemetry import assemble, critical_path

        tel = Telemetry()
        report = ProcessPipeline(
            config(trace_sample=4), telemetry=tel
        ).run(chunks(), sink=CapturingSink())
        assert report.ok, report.errors

        traces = [
            t for t in assemble(tel.spans.snapshot())
            if "wire" in t.stage_order()
        ]
        assert len(traces) == NUM_CHUNKS // 4
        for trace in traces:
            assert trace.stage_order() == (
                "feed", "compress", "send", "wire", "recv", "decompress",
            )
            # The compress span was synthesized from the ring record's
            # time trailer and names the worker *process* track.
            compress = next(
                s for s in trace.spans if s.stage == "compress"
            )
            assert compress.track.startswith("mp-compress-")
            wf = trace.waterfall()
            assert wf["total"] > 0
            assert wf["stage_work"] > 0
        verdicts = critical_path(traces)
        assert "mp-s" in verdicts
        assert verdicts["mp-s"].stage in trace.stage_order()

    def test_untraced_run_times_every_chunk_on_its_worker_track(self):
        """Timed, not traced: with telemetry attached and sampling off,
        each chunk's compress interval is stamped by the worker process
        and recorded once, on that worker's track."""
        tel = Telemetry()
        report = ProcessPipeline(config(trace_sample=0), telemetry=tel).run(
            chunks()
        )
        assert report.ok, report.errors
        spans = [s for s in tel.spans.snapshot() if s.stage == "compress"]
        assert sorted(s.chunk_id for s in spans) == list(range(NUM_CHUNKS))
        assert {s.track for s in spans} <= {"mp-compress-0", "mp-compress-1"}
        assert all(s.start < s.end for s in spans)

    def test_untraced_run_records_no_wire_spans(self):
        tel = Telemetry()
        report = ProcessPipeline(config(), telemetry=tel).run(chunks())
        assert report.ok, report.errors
        assert "wire" not in tel.spans.stages()
        assert tel.trace_align.samples == 0

    def test_per_stream_cap_bounds_trace_count(self):
        tel = Telemetry()
        report = ProcessPipeline(
            config(trace_sample=1, trace_per_stream_cap=3), telemetry=tel
        ).run(chunks())
        assert report.ok, report.errors
        traced = [
            t for t in assemble_traces(tel) if "wire" in t.stage_order()
        ]
        assert len(traced) == 3


def assemble_traces(tel):
    from repro.telemetry import assemble

    return assemble(tel.spans.snapshot())


class TestPlanLowered:
    def test_plan_execution_node_drives_process_mode(self):
        import dataclasses

        from repro.plan.ir import ExecutionNode
        from repro.plan.lower import lower_live

        # Build the smallest honest plan: reuse the planner itself.
        from repro.core.generator import ConfigGenerator, StreamRequest, Workload
        from repro.experiments.base import paper_testbed
        from repro.plan.ingest import plan_from_scenario

        gen = ConfigGenerator(paper_testbed())
        scenario = gen.generate(
            Workload(
                streams=[
                    StreamRequest(
                        stream_id="s",
                        sender="updraft1",
                        receiver="lynxdtn",
                        path="alcf-aps",
                        num_chunks=4,
                    )
                ],
                name="mp-lower",
            )
        )
        plan = plan_from_scenario(scenario)
        plan = dataclasses.replace(
            plan,
            execution=ExecutionNode(mode="process", domains=2),
        )
        lowered = lower_live(plan)
        assert lowered.config.execution_mode == "process"
        assert lowered.config.process_domains == 2
