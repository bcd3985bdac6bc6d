"""Warm compressor processes: started once, re-armed per run, never leaked.

Every test here counts events — process starts, PIDs, descriptors,
segments — and none times anything.  They fork (sub-second start-up)
except the interpreter-exit test, which drives the default ``spawn``
path in a child interpreter so the resource tracker can speak up.
"""

import dataclasses
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.mp.pipeline as mp_pipeline
from repro.data.chunking import Chunk
from repro.live.queues import Closed
from repro.live.runtime import LiveConfig
from repro.mp import ProcessPipeline, pool, shutdown_pool
from repro.mp.records import ChunkRecord, pack_record, unpack_record
from repro.mp.supervisor import DomainSupervisor
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests need the fork start method",
)

NUM_CHUNKS = 24
CHUNK_SIZE = 4096
SRC = str(Path(mp_pipeline.__file__).resolve().parents[2])


def corpus(stream="pool-s"):
    rng = make_rng(11, "pool")
    return [
        Chunk(stream, i, CHUNK_SIZE,
              payload=rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes())
        for i in range(NUM_CHUNKS)
    ]


def config(**overrides):
    base = dict(codec="zlib", compress_threads=2, decompress_threads=1,
                connections=1, mp_start_method="fork")
    base.update(overrides)
    return LiveConfig(**base)


class Sink:
    def __init__(self):
        self.got = []
        self._lock = threading.Lock()

    def __call__(self, stream_id, index, data):
        with self._lock:
            self.got.append((stream_id, index, bytes(data)))

    def assert_exactly(self, chunks):
        assert sorted(self.got) == sorted(
            (c.stream_id, c.index, c.payload) for c in chunks
        )


def alive(pid):
    """Running, or stopped but unreaped by someone else (not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: fall back to the signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))


def idle_pids():
    return sorted(w.pid for w in pool._idle.get("fork", []))


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture
def runs(monkeypatch):
    """Spy on each ProcessFront: the worker PIDs, restart count and
    worker CPU its run ended with."""
    seen = []

    class SpyFront(mp_pipeline.ProcessFront):
        def join(self, timeout):
            errors = super().join(timeout)
            seen.append({
                "pids": sorted(w.pid for w in self.supervisor.workers.values()),
                "restarts": self.supervisor.restarts,
                "worker_cpu_s": self.fields["worker_cpu_s"],
            })
            return errors

    monkeypatch.setattr(mp_pipeline, "ProcessFront", SpyFront)
    return seen


@pytest.fixture
def starts(monkeypatch):
    """Counts ``Process.start`` calls, whatever the start method."""
    count = [0]
    original = multiprocessing.process.BaseProcess.start

    def counting(self):
        count[0] += 1
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return count


def test_consecutive_runs_reuse_the_same_processes(runs, starts):
    chunks = corpus()
    sinks = [Sink(), Sink()]
    for sink in sinks:
        report = ProcessPipeline(config()).run(iter(chunks), sink=sink)
        assert report.ok, report.errors
        sink.assert_exactly(chunks)
    first, second = runs
    assert first["pids"] == second["pids"]
    assert len(set(first["pids"])) == 2
    assert starts[0] == 2  # both for the first run, none for the second
    assert idle_pids() == first["pids"]
    assert first["worker_cpu_s"] > 0 and second["worker_cpu_s"] > 0


def test_crashed_worker_never_re_enters_the_pool(runs, monkeypatch, crash_worker):
    chunks = corpus()
    armed = []
    original_arm = pool.arm

    def recording_arm(*args, **kwargs):
        worker = original_arm(*args, **kwargs)
        armed.append(worker.pid)
        return worker

    monkeypatch.setattr(pool, "arm", recording_arm)
    crash_worker(3)
    sink = Sink()
    report = ProcessPipeline(config()).run(iter(chunks), sink=sink)
    assert report.ok, report.errors
    sink.assert_exactly(chunks)
    assert runs[0]["restarts"] >= 1
    crashed = armed[0]  # domain 0's first worker
    assert not alive(crashed)
    assert crashed not in idle_pids()
    assert len(idle_pids()) == 2

    crash_worker(None)
    sink = Sink()
    report = ProcessPipeline(config()).run(iter(chunks), sink=sink)
    assert report.ok, report.errors
    sink.assert_exactly(chunks)
    assert runs[1]["restarts"] == 0
    assert crashed not in runs[1]["pids"]


def test_concurrent_runs_never_share_a_worker():
    """Four pipelines at once on a two-core box, each run twice, with
    the interpreter switching threads as often as it can: no idle worker
    may be handed to two runs, and every run delivers exactly once.

    Spawn, not fork: forking while another pipeline's thread holds the
    stdlib resource tracker's lock leaves the child that lock held, a
    hazard of concurrent fork-mode pipelines the pool does not add."""
    chunks = corpus()
    failures = []

    def two_runs(stream):
        mine = [dataclasses.replace(c, stream_id=stream) for c in chunks]
        for _ in range(2):
            sink = Sink()
            report = ProcessPipeline(
                config(compress_threads=1, mp_start_method="spawn")
            ).run(iter(mine), sink=sink)
            try:
                assert report.ok, report.errors
                sink.assert_exactly(mine)
            except AssertionError as exc:
                failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=two_runs, args=(f"c{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    idle = sorted(w.pid for w in pool._idle.get("spawn", []))
    assert 1 <= len(idle) <= 4 and len(set(idle)) == len(idle)
    assert all(alive(p) for p in idle)


def supervised():
    sup = DomainSupervisor(
        config(compress_threads=1, ring_capacity=8), codec_spec="zlib"
    )
    sup.start()
    return sup


def drain(ring, got):
    try:
        while True:
            got.extend(unpack_record(r) for r in ring.get_many(16, timeout=15.0))
    except Closed:
        pass


def test_drained_run_returns_no_worker():
    sup = supervised()
    try:
        got = []
        collector = threading.Thread(target=drain, args=(sup.comp[0], got))
        collector.start()
        for i in range(4):
            rec = ChunkRecord("d", i, bytes(512), False, 512)
            sup.dispatch(0, rec.key, pack_record(rec), timeout=10.0)
        # Wait until the worker compressed them (counted, not timed).
        deadline = time.monotonic() + 15.0
        while len(got) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = sup.workers[0].pid
        sup.terminate()
        collector.join(20.0)
        assert not collector.is_alive()
        assert [r.index for r in got] == [0, 1, 2, 3]
        assert sup.join(10.0) == []
    finally:
        sup.shutdown()
    assert idle_pids() == []
    assert not alive(pid)


def test_aborted_run_returns_no_worker():
    sup = supervised()
    try:
        pid = sup.workers[0].pid
        sup.abort()  # the worker sees its closed input and replies done
        assert sup.join(10.0) == []
    finally:
        sup.shutdown()
    assert idle_pids() == []
    assert not alive(pid)


def test_late_run_returns_no_worker():
    sup = supervised()
    try:
        pid = sup.workers[0].pid
        # The input never closes, so the run is still going at shutdown.
        assert sup.join(0.2) == ["mp-compress-0 did not finish within 0.2s"]
    finally:
        sup.shutdown()
    assert idle_pids() == []
    assert not alive(pid)


def shm_segments():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def test_shutdown_pool_leaves_no_child_and_no_segment(runs):
    before = shm_segments()
    report = ProcessPipeline(config()).run(iter(corpus()))
    assert report.ok, report.errors
    pids = runs[0]["pids"]
    assert all(alive(p) for p in pids)  # warm, waiting for the next run
    shutdown_pool()
    assert not any(alive(p) for p in pids)
    assert not {p.pid for p in multiprocessing.active_children()} & set(pids)
    assert shm_segments() - before == set()


def test_interpreter_exit_stops_the_pool_without_warnings():
    """A spawn-mode run in a child interpreter that never calls
    shutdown_pool: the atexit hook must take the workers down, and the
    resource tracker must find nothing leaked."""
    script = (
        "from repro.data.chunking import Chunk\n"
        "from repro.live.runtime import LiveConfig\n"
        "from repro.mp import ProcessPipeline, pool\n"
        "src = [Chunk('x', i, 64, payload=bytes([i]) * 64) for i in range(6)]\n"
        "cfg = LiveConfig(codec='zlib', process_domains=2)\n"
        "for _ in range(2):\n"
        "    assert ProcessPipeline(cfg).run(iter(src)).ok\n"
        "print(*sorted(w.pid for w in pool._live))\n"
    )
    before = shm_segments()
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2  # the second run re-armed the first run's pair
    assert not any(alive(p) for p in pids)
    assert "leaked" not in proc.stderr and "resource_tracker" not in proc.stderr
    assert shm_segments() - before == set()


def test_orphaned_workers_exit(tmp_path):
    """The parent dies without stopping its pool while a process it
    forked later lives on holding copies of every pipe end, so the
    idle workers never read EOF: they must notice the orphaning.
    (Output goes to files: the holder and the resource tracker keep any
    inherited pipe open.)"""
    script = (
        "import os, time\n"
        "from repro.data.chunking import Chunk\n"
        "from repro.live.runtime import LiveConfig\n"
        "from repro.mp import ProcessPipeline, pool\n"
        "src = [Chunk('x', i, 64, payload=bytes([i]) * 64) for i in range(6)]\n"
        "cfg = LiveConfig(codec='zlib', process_domains=2, mp_start_method='fork')\n"
        "assert ProcessPipeline(cfg).run(iter(src)).ok\n"
        "holder = os.fork()\n"
        "if holder == 0:\n"
        "    time.sleep(60)\n"
        "    os._exit(0)\n"
        "print(holder, *(w.pid for w in pool._live), flush=True)\n"
        "os._exit(0)\n"
    )
    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        subprocess.run(
            [sys.executable, "-c", script], stdout=stdout, stderr=stderr,
            env=child_env(), timeout=120, check=True,
        )
    holder, *workers = (int(p) for p in out.read_text().split())
    try:
        assert len(workers) == 2, err.read_text()
        deadline = time.monotonic() + 30.0
        while any(alive(p) for p in workers) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(alive(p) for p in workers)
        assert alive(holder)  # the pipe ends really were held throughout
    finally:
        os.kill(holder, 9)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_forked_worker_holds_no_parent_socket(runs):
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    a, b = socket.socketpair()
    try:
        report = ProcessPipeline(config()).run(iter(corpus()))
        assert report.ok, report.errors
        for pid in runs[0]["pids"]:
            fd_dir = f"/proc/{pid}/fd"
            links = [os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)]
            assert not [l for l in links if l.startswith("socket:")], links
    finally:
        for s in (listener, a, b):
            s.close()


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to pin to",
)
def test_a_re_armed_worker_starts_unpinned_again(runs):
    home = os.sched_getaffinity(0)
    pinned = config(compress_threads=1, affinity={"compress": [min(home)]})
    tel = Telemetry()
    assert ProcessPipeline(pinned, telemetry=tel).run(iter(corpus())).ok
    (pid,) = runs[0]["pids"]
    assert os.sched_getaffinity(pid) == {min(home)}
    # The parent placed the worker, and records what it applied.
    assert tel.affinity_cpus()["mp-compress-0"] == 1
    tel = Telemetry()
    assert ProcessPipeline(config(compress_threads=1), telemetry=tel).run(
        iter(corpus())
    ).ok
    assert runs[1]["pids"] == [pid]
    # Between runs the worker sits where the previous run left it; the
    # next run first moves it back to the set it was started with.
    assert os.sched_getaffinity(pid) == home
    assert tel.affinity_cpus()["mp-compress-0"] == 0


def test_worker_import_closure_stays_small():
    """What a spawned worker imports: not the planner, the simulator,
    the sockets or the pipeline runtime."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.mp.workers; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=child_env(), check=True, timeout=60,
    ).stdout.split()
    heavy = ("repro.core", "repro.plan", "repro.live.remote", "repro.live.runtime")
    assert [m for m in out if m.startswith(heavy)] == []


@pytest.mark.parametrize(
    "module",
    ["repro.plan.ir", "repro.live.remote", "repro.obs.session", "repro.mp.pipeline"],
)
def test_a_module_imports_first_in_a_fresh_interpreter(module):
    """Lazy package ``__init__``s import nothing on their own, so no
    import order hides a cycle: ``repro.plan.ir`` needs
    ``repro.core.config``, and ``repro.core``'s generator needs
    ``repro.plan.ir``."""
    subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=child_env(),
        check=True, timeout=60, capture_output=True,
    )
