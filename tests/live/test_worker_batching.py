"""Worker-level batching and the reconnect backoff schedule.

Covers the two behavioural commitments of the hot-path rewrite:

- batching is a pure throughput knob — ``batch_frames > 1`` delivers
  exactly the same chunks (and payload bytes) as today's
  frame-at-a-time pipeline, locally and over TCP;
- ``resilient_sender`` reconnects *immediately* on the first attempt
  and backs off only between failed attempts (the old code slept
  ``backoff(attempt)`` before every try, taxing every recovery with
  ``base_delay`` of dead time even when the endpoint was healthy).
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.faults import RetryPolicy
from repro.live import workers
from repro.live.queues import ClosableQueue
from repro.live.remote import ReceiverServer
from repro.live.runtime import LiveConfig, LivePipeline
from repro.live.stageset import Knobs
from repro.live.transport import Frame, FramedReceiver, FramedSender
from repro.live.workers import StageStats, resilient_sender
from repro.util.errors import TransportError
from repro.util.rng import make_rng

from tests.live.test_remote import run_pair


def chunks(n=8, size=1024, stream="batch-s", seed=3):
    rng = make_rng(seed, "batch-test")
    for i in range(n):
        yield Chunk(
            stream_id=stream,
            index=i,
            nbytes=size,
            payload=rng.integers(0, 256, size, dtype=np.uint8).tobytes(),
        )


class TestBatchedPipeline:
    @pytest.mark.parametrize("batch_frames", [2, 4, 16])
    def test_batched_loopback_delivers_everything(self, batch_frames):
        cfg = LiveConfig(
            codec="null",
            compress_threads=1,
            decompress_threads=1,
            connections=1,
            batch_frames=batch_frames,
        )
        report = LivePipeline(cfg).run(chunks(24))
        assert report.ok, report.errors
        assert report.chunks == 24

    def test_batch_of_one_matches_batched_bytes(self):
        """batch_frames is invisible to the data: same chunks, bytes."""

        def run(batch_frames):
            cfg = LiveConfig(
                codec="zlib",
                compress_threads=2,
                decompress_threads=2,
                connections=2,
                batch_frames=batch_frames,
                batch_linger=0.005,
            )
            return LivePipeline(cfg).run(chunks(20, seed=9))

        base, batched = run(1), run(8)
        assert base.ok and batched.ok
        assert base.chunks == batched.chunks == 20
        assert base.bytes_in == batched.bytes_in
        assert base.bytes_out == batched.bytes_out

    def test_batched_remote_round_trip(self):
        server = ReceiverServer(
            codec="zlib", connections=2, batch_frames=4
        )
        tx, rx = run_pair(
            server,
            dict(codec="zlib", connections=2, batch_frames=4,
                 batch_linger=0.005),
            chunks(12),
        )
        assert tx.ok, tx.errors
        assert rx.ok, rx.errors
        assert rx.chunks == 12
        assert tx.wire_bytes == rx.wire_bytes


def _ack_echo(sock):
    """Receiver half for resilient_sender tests: ACK every frame."""

    def run():
        rx = FramedReceiver(sock)
        tx = FramedSender(sock)
        try:
            while True:
                frame = rx.recv()
                if frame is None:
                    return
                tx.send(Frame.ack_for(frame))
                if frame.eos:
                    return
        except (TransportError, OSError):
            return

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


class TestReconnectBackoff:
    def _run_sender(self, monkeypatch, *, reconnect_failures, retry):
        """Drive resilient_sender through a dead socket + reconnect.

        Returns (recorded sleeps, stats).  ``time.sleep`` is faked so
        the schedule is asserted exactly, with no wall-clock cost.
        """
        sleeps = []
        real_sleep = time.sleep
        monkeypatch.setattr(
            workers.time, "sleep",
            lambda s: (sleeps.append(s), real_sleep(0))[0],
        )

        # The initial connection is dead on arrival: its peer is closed,
        # so the very first send fails and recovery kicks in.
        dead_a, dead_b = socket.socketpair()
        dead_b.close()
        transport = FramedSender(dead_a)

        failures = [0]
        echoes = []

        def reconnect():
            if failures[0] < reconnect_failures:
                failures[0] += 1
                raise TransportError("still down")
            a, b = socket.socketpair()
            echoes.append(_ack_echo(b))
            return FramedSender(a)

        inq = ClosableQueue(capacity=4, producers=1)
        inq.put(Frame("r", 0, b"data", orig_len=4))
        inq.close()
        stats = StageStats("send")
        resilient_sender(
            transport,
            reconnect,
            inq,
            stats,
            retry=retry,
            knobs=Knobs(),
            drain_timeout=10.0,
        )
        for t in echoes:
            t.join(timeout=5.0)
        return sleeps, stats

    def test_first_reconnect_attempt_is_immediate(self, monkeypatch):
        retry = RetryPolicy(max_attempts=4, base_delay=0.25, multiplier=2.0)
        sleeps, stats = self._run_sender(
            monkeypatch, reconnect_failures=0, retry=retry
        )
        assert stats.errors == []
        assert stats.chunks == 1
        assert sleeps == []  # attempt 0 must not add dead time

    def test_backoff_only_between_failed_attempts(self, monkeypatch):
        retry = RetryPolicy(max_attempts=5, base_delay=0.25, multiplier=2.0)
        sleeps, stats = self._run_sender(
            monkeypatch, reconnect_failures=2, retry=retry
        )
        assert stats.errors == []
        # Two failures -> success on attempt 2: one sleep before each
        # *retry*, following the policy's schedule from the start.
        assert sleeps == [retry.backoff(0), retry.backoff(1)]

    def test_reconnect_gives_up_after_max_attempts(self, monkeypatch):
        retry = RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0)
        sleeps, stats = self._run_sender(
            monkeypatch, reconnect_failures=99, retry=retry
        )
        assert stats.errors and "gave up after 3 attempts" in stats.errors[0]
        assert sleeps == [retry.backoff(0), retry.backoff(1)]
