"""One corpus, one capturing sink, every assembly of the chain.

The thread pipeline, the process pipeline and the two TCP endpoints
are compositions of the same :mod:`repro.live.assembly` halves, so for
one corpus they must hand the sink exactly the bytes the source
produced — every key once, byte for byte.  The process case also pins
the bug this module's refactor fixed: ``LivePipeline`` used to ignore
``LiveConfig.execution_mode`` and run threads whatever it said.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.live.remote import ReceiverServer, SenderClient
from repro.live.runtime import LiveConfig, LivePipeline
from repro.obs import EventBus
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

STREAMS = ("par-a", "par-b")
PER_STREAM = 9
CHUNK_SIZE = 4096

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode tests need the fork start method",
)


def corpus():
    """Two interleaved streams, alternating noise and smooth payloads
    (so zlib's output size varies chunk to chunk)."""
    rng = make_rng(23, "assembly-parity")
    smooth = (np.arange(CHUNK_SIZE // 2, dtype=np.uint16) >> 4).tobytes()
    out = []
    for i in range(PER_STREAM):
        for sid in STREAMS:
            noise = rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes()
            out.append(
                Chunk(
                    stream_id=sid, index=i, nbytes=CHUNK_SIZE,
                    payload=smooth if i % 2 else noise,
                )
            )
    return out


class CapturingSink:
    def __init__(self):
        self.by_key = {}
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, stream_id, index, data):
        with self._lock:
            self.calls += 1
            self.by_key[(stream_id, index)] = bytes(data)


def run_pipeline(mode, source, sink, tel):
    cfg = LiveConfig(
        codec="zlib", compress_threads=2, decompress_threads=2,
        connections=2, execution_mode=mode, mp_start_method="fork",
    )
    report = LivePipeline(cfg, telemetry=tel).run(source, sink)
    return [report]


def run_tcp(source, sink, tel):
    served = []
    with ReceiverServer(
        codec="zlib", connections=2, decompress_threads=2, telemetry=tel
    ) as server:
        host, port = server.address
        thread = threading.Thread(
            target=lambda: served.append(server.serve(sink)), daemon=True
        )
        thread.start()
        sent = SenderClient(
            host, port, codec="zlib", connections=2, compress_threads=2,
            telemetry=tel,
        ).run(source)
        thread.join(timeout=60)
        assert not thread.is_alive(), "receiver did not finish"
    return [sent, *served]


@pytest.mark.parametrize(
    "assembly",
    ["thread", pytest.param("process", marks=needs_fork), "tcp"],
)
def test_sink_output_is_the_input_corpus(assembly):
    chunks = corpus()
    expected = {(c.stream_id, c.index): c.payload for c in chunks}
    sink = CapturingSink()
    bus = EventBus(source="live")
    tel = Telemetry()
    tel.attach_events(bus)

    if assembly == "tcp":
        reports = run_tcp(iter(chunks), sink, tel)
    else:
        reports = run_pipeline(assembly, iter(chunks), sink, tel)

    for report in reports:
        assert report.ok, report.errors
    assert sink.calls == len(chunks)  # exactly once
    assert sink.by_key == expected  # byte-identical

    runners = {e.fields["runner"] for e in bus.recent(kind="run_start")}
    assert runners == {
        "thread": {"LivePipeline"},
        "process": {"ProcessPipeline"},
        "tcp": {"SenderClient", "ReceiverServer"},
    }[assembly]


@needs_fork
def test_live_pipeline_honours_process_execution_mode(crash_worker):
    """Regression: a config with ``execution_mode="process"`` (what
    ``lower_live`` emits for a plan's ``execution.mode: process``) used
    to run in thread mode, silently, when handed to ``LivePipeline``."""
    bus = EventBus(source="live")
    tel = Telemetry()
    tel.attach_events(bus)
    cfg = LiveConfig(
        codec="zlib", compress_threads=2, decompress_threads=1,
        connections=1, execution_mode="process", process_domains=2,
        mp_start_method="fork",
    )
    report = LivePipeline(cfg, telemetry=tel).run(iter(corpus()))
    assert report.ok, report.errors

    (start,) = bus.recent(kind="run_start")
    assert start.fields["mode"] == "process"
    assert start.fields["domains"] == 2
    # The compressors ran out of process: their heartbeats carry the
    # worker-process names (thread-mode compressors would beat as
    # "compress-N"), and the collectors booked the compress stats from
    # the workers' stamps.
    beats = tel.heartbeats()
    assert {"mp-compress-0", "mp-compress-1"} <= set(beats)
    assert not any(name.startswith("compress-") for name in beats)
    comp = report.stage_stats["compress"]
    assert comp.chunks == len(STREAMS) * PER_STREAM
    assert comp.bytes_in == comp.chunks * CHUNK_SIZE

    # The booking needs no telemetry, and counts each delivered chunk
    # once even when a crash made the supervisor replay records that
    # the collectors' dedup then dropped.
    for crash in (None, 3):
        crash_worker(crash)
        report = LivePipeline(cfg).run(iter(corpus()))
        assert report.ok, report.errors
        comp = report.stage_stats["compress"]
        assert comp.chunks == report.chunks == len(STREAMS) * PER_STREAM
        assert comp.bytes_in == comp.chunks * CHUNK_SIZE
        assert comp.busy_seconds > 0
