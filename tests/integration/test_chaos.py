"""Acceptance chaos run for the resilient live transport.

The scenario named by the issue: a live TCP pipeline, two connections,
one connection killed mid-stream plus one provably-corrupt frame.  The
sink must still see every chunk exactly once — zero lost, zero
duplicated — and the telemetry counters must show the recovery
happened (a reconnect, a rejected frame).

This file is run by the CI ``chaos`` job (fixed seed, single-retry
flake guard), deliberately outside the tier-1 suite: it opens real
sockets and sleeps through real backoff delays.
"""

import threading

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.faults import (
    FaultInjector,
    LiveFaultSpec,
    RetryPolicy,
    TimeoutPolicy,
)
from repro.live.blocks import BLOCK_BYTES
from repro.live.remote import ReceiverServer, SenderClient
from repro.telemetry import Telemetry
from repro.util.rng import make_rng

NUM_CHUNKS = 40
CHUNK_SIZE = 4096


def chunks():
    rng = make_rng(7, "chaos")
    for i in range(NUM_CHUNKS):
        yield Chunk(
            stream_id="chaos-s",
            index=i,
            nbytes=CHUNK_SIZE,
            payload=rng.integers(0, 256, CHUNK_SIZE, dtype=np.uint8).tobytes(),
        )


@pytest.mark.chaos
def test_chaos_exactly_once_delivery():
    tel = Telemetry()
    received = []
    received_lock = threading.Lock()

    def sink(stream_id, index, data):
        with received_lock:
            received.append((stream_id, index, len(data)))

    server = ReceiverServer(
        codec="zlib",
        connections=2,
        decompress_threads=2,
        timeouts=TimeoutPolicy(accept=20, join=60),
        telemetry=tel,
    )
    host, port = server.address

    injector = FaultInjector(
        [
            # Kill one TCP connection mid-stream (frame 5 of the run).
            LiveFaultSpec(kind="drop", at_frame=5),
            # And corrupt one frame later on — the receiver must reject
            # it (checksum) and the sender must redeliver.
            LiveFaultSpec(kind="corrupt", at_frame=12),
        ],
        telemetry=tel,
    )

    reports = {}

    def serve():
        reports["rx"] = server.serve(sink=sink)

    t = threading.Thread(target=serve, daemon=True)
    t.start()

    client = SenderClient(
        host,
        port,
        codec="zlib",
        connections=2,
        compress_threads=2,
        retry=RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5),
        timeouts=TimeoutPolicy(connect=10, join=60, drain=20),
        injector=injector,
        telemetry=tel,
    )
    reports["tx"] = client.run(chunks())
    t.join(timeout=60)
    assert not t.is_alive(), "receiver did not finish"

    tx, rx = reports["tx"], reports["rx"]
    assert tx.ok, tx.errors
    assert rx.ok, rx.errors

    # Exactly-once at the sink: zero lost, zero duplicated.
    indices = sorted(i for _, i, _ in received)
    assert indices == list(range(NUM_CHUNKS)), (
        f"lost={sorted(set(range(NUM_CHUNKS)) - set(indices))} "
        f"dup={sorted(i for i in set(indices) if indices.count(i) > 1)}"
    )
    assert all(s == "chaos-s" and n == CHUNK_SIZE for s, _, n in received)

    # Both faults actually fired and were recovered from.
    assert injector.exhausted
    assert tel.counter_value("transport_retries_total") >= 1
    assert tel.counter_value("transport_frames_rejected_total") >= 1
    assert tel.counter_value(
        "transport_faults_injected_total", kind="drop"
    ) == 1
    assert tel.counter_value(
        "transport_faults_injected_total", kind="corrupt"
    ) == 1


@pytest.mark.chaos
def test_corrupt_blocked_frame_is_replayed_once():
    """A zlib chunk above BLOCK_BYTES crosses as one blocked frame; one
    corrupted on the wire is rejected by its checksum, replayed by the
    sender and delivered exactly once, byte-identical."""
    tel = Telemetry()
    rng = make_rng(7, "chaos-blocks")
    size = BLOCK_BYTES + 8192
    payloads = [
        (rng.integers(0, 64, size // 2, dtype=np.uint16)).tobytes()
        for _ in range(4)
    ]
    received = {}
    received_lock = threading.Lock()

    def sink(stream_id, index, data):
        with received_lock:
            received.setdefault(index, []).append(data)

    sabotaged = []

    class Recording(FaultInjector):
        def on_send(self, frame, connection=0):
            spec = super().on_send(frame, connection)
            if spec is not None:
                sabotaged.append(frame)
            return spec

    injector = Recording(
        [LiveFaultSpec(kind="corrupt", at_frame=1)], telemetry=tel
    )
    server = ReceiverServer(
        codec="zlib", connections=1, decompress_threads=2,
        timeouts=TimeoutPolicy(accept=20, join=60), telemetry=tel,
    )
    host, port = server.address
    reports = {}
    t = threading.Thread(
        target=lambda: reports.setdefault("rx", server.serve(sink=sink)),
        daemon=True,
    )
    t.start()
    reports["tx"] = SenderClient(
        host, port, codec="zlib", connections=1,
        retry=RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5),
        timeouts=TimeoutPolicy(connect=10, join=60, drain=20),
        injector=injector, telemetry=tel,
    ).run(
        Chunk("chaos-b", i, size, payload=p) for i, p in enumerate(payloads)
    )
    t.join(timeout=60)
    assert not t.is_alive(), "receiver did not finish"
    assert reports["tx"].ok, reports["tx"].errors
    assert reports["rx"].ok, reports["rx"].errors

    assert len(sabotaged) == 1 and len(sabotaged[0].blocks) == 2
    assert received == {i: [p] for i, p in enumerate(payloads)}
    assert tel.counter_value("transport_frames_rejected_total") >= 1
    assert tel.counter_value("transport_redeliveries_total") >= 1
