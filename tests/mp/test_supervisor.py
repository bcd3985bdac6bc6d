"""DomainSupervisor: lifecycle, crash recovery, and graceful drain.

These tests fork real worker processes (the ``fork`` start method, for
sub-second startup) against tiny rings, so every path — clean drain,
mid-stream crash with replay, retry exhaustion, SIGTERM — runs the
genuine article rather than a mock.  The collector always runs in a
background thread, like the pipeline's does: with bounded rings, a
dispatch-everything-then-collect test would deadlock by design.
"""

import dataclasses
import multiprocessing
import threading
import time
import zlib

import pytest

from repro.faults.policy import RetryPolicy
from repro.live.queues import Closed
from repro.live.runtime import LiveConfig
from repro.mp.records import ChunkRecord, pack_record, unpack_record
from repro.mp.stats import WorkerState
from repro.mp.supervisor import DomainSupervisor
from repro.mp.topology import plan_topology

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervisor tests need the fork start method",
)


def make_records(n, stream="sup-s", size=512):
    recs = []
    for i in range(n):
        payload = bytes((i * 37 + j) % 256 for j in range(size))
        recs.append(ChunkRecord(stream, i, payload, False, size))
    return recs


class Collector:
    """Background drain of one comp ring, acking like the pipeline."""

    def __init__(self, supervisor, domain=0):
        self.supervisor = supervisor
        self.domain = domain
        self.got = []
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        ring = self.supervisor.comp_ring(self.domain)
        try:
            while True:
                try:
                    for raw in ring.get_many(16, timeout=15.0):
                        rec = unpack_record(raw)
                        self.supervisor.ack(self.domain, rec.key)
                        self.got.append(rec)
                except Closed:
                    return
        except Exception as exc:  # pragma: no cover - surfaced in join()
            self.error = exc

    def join(self, timeout=20.0):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "collector never saw Closed"
        if self.error is not None:
            raise self.error
        return self.got


def make_supervisor(topo, **kwargs):
    kwargs.setdefault("codec_spec", "zlib")
    kwargs.setdefault("start_method", "fork")
    return DomainSupervisor(topo, **kwargs)


def small_topology(**config_kwargs):
    config_kwargs.setdefault("codec", "zlib")
    config_kwargs.setdefault("compress_threads", 1)
    config_kwargs.setdefault("ring_capacity", 4)
    return plan_topology(LiveConfig(**config_kwargs))


class TestCleanRun:
    def test_dispatch_compress_collect(self):
        sup = make_supervisor(small_topology())
        sup.start()
        try:
            collector = Collector(sup)
            sent = make_records(10)
            for rec in sent:
                sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
            sup.close_inputs()
            got = collector.join()
            assert [r.key for r in got] == [r.key for r in sent]
            for original, compressed in zip(sent, got):
                assert compressed.compressed
                assert compressed.orig_len == len(original.payload)
                assert zlib.decompress(compressed.payload) == original.payload
            assert sup.join(10.0) == []
            assert sup.restarts == 0
            stats = sup.stats.read(0)
            assert stats.state is WorkerState.STOPPED
            assert stats.chunks == 10
            assert stats.heartbeat > 0
        finally:
            sup.shutdown()

    def test_outstanding_set_empties_on_ack(self):
        sup = make_supervisor(small_topology())
        sup.start()
        try:
            collector = Collector(sup)
            for rec in make_records(4):
                sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
            sup.close_inputs()
            collector.join()
            assert not sup._outstanding[0]
        finally:
            sup.shutdown()


class TestCrashRecovery:
    def crashy_topology(self, crash_after=3):
        topo = small_topology()
        workers = tuple(
            dataclasses.replace(w, crash_after=crash_after)
            for w in topo.workers
        )
        return dataclasses.replace(topo, workers=workers)

    def test_crash_mid_stream_restarts_and_replays(self):
        sup = make_supervisor(
            self.crashy_topology(crash_after=3),
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        sup.start()
        try:
            collector = Collector(sup)
            sent = make_records(12)
            for rec in sent:
                sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
            sup.close_inputs()
            got = collector.join()
            # Replay after the crash means at-least-once at the ring:
            # every record arrives; dupes are possible (the pipeline's
            # collector dedups on key).
            assert {r.key for r in got} == {r.key for r in sent}
            assert sup.restarts >= 1
            assert sup.join(10.0) == []
            assert sup.stats.read(0).restarts == sup.restarts
        finally:
            sup.shutdown()

    def test_retry_exhaustion_gives_up_and_aborts(self, monkeypatch):
        sup = make_supervisor(
            small_topology(),
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
        )
        original = sup._spawn

        def always_crashy(spec):
            original(dataclasses.replace(spec, crash_after=1))

        monkeypatch.setattr(sup, "_spawn", always_crashy)
        sup.start()
        try:
            collector = Collector(sup)
            # Every incarnation dies after one chunk; the supervisor
            # must stop restarting and unwind the whole run instead of
            # looping forever.
            with pytest.raises(Exception):
                for rec in make_records(20):
                    sup.dispatch(0, rec.key, pack_record(rec), timeout=2.0)
            collector.join()
            errors = sup.join(5.0)
            assert any("exhausted" in e for e in errors)
            assert all(ring.closed for ring in sup.rings.values())
        finally:
            sup.shutdown()


class TestGracefulDrain:
    def test_sigterm_flushes_published_records(self):
        sup = make_supervisor(small_topology(ring_capacity=8))
        sup.start()
        try:
            collector = Collector(sup)
            sent = make_records(6)
            for rec in sent:
                sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
            time.sleep(0.3)  # let the worker consume what was published
            sup.terminate()
            got = collector.join()
            assert [r.key for r in got] == [r.key for r in sent]
            assert sup.join(10.0) == []
            assert sup.restarts == 0  # a drain is not a crash
        finally:
            sup.shutdown()


class TestTelemetry:
    def test_stats_fold_into_registry(self):
        from repro.telemetry import Telemetry

        tel = Telemetry()
        sup = make_supervisor(small_topology(), telemetry=tel)
        sup.start()
        try:
            collector = Collector(sup)
            for rec in make_records(5):
                sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
            sup.close_inputs()
            collector.join()
            assert sup.join(10.0) == []
        finally:
            sup.shutdown()
        assert "mp-compress-0" in tel.heartbeats()
        assert tel.affinity_cpus().get("mp-compress-0") == 0.0


class TestJoinRace:
    def test_join_settles_when_the_monitor_reaped_the_child_first(self):
        """The monitor thread polls the same ``Process`` object that
        ``join`` waits on; when its ``waitpid`` wins, ``Process.join``
        returns early and ``is_alive()`` still reads True for an
        instant.  A worker that did finish must not be reported as a
        straggler (this showed up as a rare ``did not finish within``
        on perfectly good runs)."""

        class RacedProcess:
            """join() lost the waitpid race; the exit code lands two
            polls later."""

            def __init__(self):
                self.polls = 0

            def join(self, timeout=None):
                return None

            def is_alive(self):
                self.polls += 1
                return self.polls <= 2

        sup = make_supervisor(small_topology())
        proc = RacedProcess()
        sup._procs[0] = proc
        assert sup.join(5.0) == []
        assert proc.polls >= 3

    def test_a_real_straggler_is_still_reported(self):
        class StuckProcess:
            def join(self, timeout=None):
                return None

            def is_alive(self):
                return True

        sup = make_supervisor(small_topology())
        sup._procs[0] = StuckProcess()
        assert sup.join(0.05) == ["mp-compress-0 did not finish within 0.05s"]
