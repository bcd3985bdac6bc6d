"""Chaos acceptance for process mode: crash a compressor mid-stream.

The process-mode analogue of ``test_chaos.py``: same seed, same chunk
shape, but the fault is a worker process dying the hard way
(``os._exit(1)``, no flushing, no handlers) three chunks in.  The
supervisor must restart it under the retry policy and replay the
outstanding records; the sink must still see every chunk exactly once,
and the event stream must narrate the recovery.

Runs in the CI ``chaos`` job, outside tier-1: it forks real processes
and sleeps through real restart backoff.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.live.runtime import LiveConfig
from repro.mp import ProcessPipeline
from repro.obs import EventBus
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

NUM_CHUNKS = 40
CHUNK_SIZE = 4096

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process-mode chaos needs the fork start method",
    ),
]


def chunks():
    rng = make_rng(7, "chaos")
    for i in range(NUM_CHUNKS):
        yield Chunk(
            stream_id="chaos-mp",
            index=i,
            nbytes=CHUNK_SIZE,
            payload=rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes(),
        )


def test_chaos_worker_crash_exactly_once(monkeypatch, crash_worker):
    import repro.mp.pipeline as mp_pipeline

    crash_worker(3)
    fronts = []

    class SpyFront(mp_pipeline.ProcessFront):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fronts.append(self)

    monkeypatch.setattr(mp_pipeline, "ProcessFront", SpyFront)

    bus = EventBus(source="live")
    tel = Telemetry()
    tel.attach_events(bus)

    received = []
    received_lock = threading.Lock()

    def sink(stream_id, index, data):
        with received_lock:
            received.append((stream_id, index, len(data)))

    cfg = LiveConfig(
        codec="zlib",
        compress_threads=2,
        decompress_threads=2,
        connections=1,
        execution_mode="process",
        mp_start_method="fork",
    )
    report = ProcessPipeline(cfg, telemetry=tel).run(chunks(), sink=sink)

    assert report.ok, report.errors
    assert report.chunks == NUM_CHUNKS
    # The collectors' replay dedup is a watermark, not a set of every
    # key ever seen: however much the restart replayed, the run ends
    # with the stream fully absorbed and nothing parked above the
    # watermark (tests/mp/test_collector_dedup.py pins the drop count).
    (front,) = fronts
    assert front.dedup.watermark("chaos-mp") == NUM_CHUNKS - 1
    assert front.dedup.out_of_order("chaos-mp") == 0
    # Exactly once at the sink: every index, no duplicates.
    indices = sorted(i for _, i, _ in received)
    assert indices == list(range(NUM_CHUNKS))

    # The recovery is narrated: at least one restart event, and the
    # run closes with the restart count on record.
    restarts = bus.recent(kind="worker_restart")
    assert restarts, "expected a worker_restart event"
    assert restarts[0].fields.get("worker") == "mp-compress-0"
    ends = bus.recent(kind="run_end")
    assert any(e.fields.get("restarts", 0) >= 1 for e in ends)

