"""Worker-level batching and the reconnect backoff schedule.

Covers the behavioural commitments of the hot-path rewrite:

- the transport stages coalesce only frames that are already waiting,
  bounded by :data:`~repro.live.workers.COALESCE_BYTES`: small frames
  share a ``sendmsg`` and a handoff, large frames travel alone, and a
  partial frame never holds whole ones back;
- ``resilient_sender`` reconnects *immediately* on the first attempt
  and backs off only between failed attempts (the old code slept
  ``backoff(attempt)`` before every try, taxing every recovery with
  ``base_delay`` of dead time even when the endpoint was healthy).
"""

import socket
import threading
import time

import pytest

from repro.faults import RetryPolicy
from repro.live import workers
from repro.live.queues import ClosableQueue
from repro.live.transport import (
    Frame,
    FramedReceiver,
    FramedSender,
    encode_frame,
    socket_pipe,
)
from repro.live.workers import StageStats, receiver, resilient_sender, sender
from repro.telemetry import Telemetry
from repro.util.errors import QueueTimeout, TransportError


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


def _frames(n, size, *, traced=()):
    return [
        Frame("c", i, bytes([i % 256]) * size, orig_len=size,
              traced=i in traced)
        for i in range(n)
    ]


def _closed_queue(frames):
    q = ClosableQueue(capacity=len(frames), producers=1)
    q.put_many(frames)
    q.close()
    return q


class _CountingSock:
    """A socket whose ``sendmsg`` calls are counted."""

    def __init__(self, sock):
        self._sock = sock
        self.sendmsg_calls = 0

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        return self._sock.sendmsg(buffers)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _drain(sock):
    """Read frames off ``sock`` on a thread until EOS; returns
    (thread, received frames)."""
    got = []

    def run():
        rx = FramedReceiver(sock)
        while (frame := rx.recv()) is not None and not frame.eos:
            got.append(frame)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, got


class TestCoalescingCounts:
    """Count pins of the per-message path: deterministic, no timing."""

    def test_small_frames_share_sendmsg_calls(self):
        # Frame at a time this was 256 calls, one per frame (plus one
        # for the EOS); the 64-frame, 256 KiB bound makes it 4 batches
        # of 2 calls (plus the EOS): 9.
        a, b = socket.socketpair()
        counted = _CountingSock(a)
        reader, got = _drain(b)
        stats = StageStats("send")
        sender(FramedSender(counted), _closed_queue(_frames(256, 2048)), stats)
        reader.join(timeout=10)
        b.close()
        assert not reader.is_alive()
        assert stats.errors == []
        assert [f.index for f in got] == list(range(256))
        assert counted.sendmsg_calls <= 256 // 8

    def test_large_frames_travel_alone(self):
        a, b = socket.socketpair()
        tx = FramedSender(a)
        batches = []
        real = tx.send_many

        def send_many(frames):
            batches.append([f.eos for f in frames])
            real(frames)

        tx.send_many = send_many
        reader, got = _drain(b)
        stats = StageStats("send")
        sender(tx, _closed_queue(_frames(8, 1 << 20)), stats)
        reader.join(timeout=10)
        b.close()
        assert not reader.is_alive()
        assert stats.errors == []
        assert len(got) == 8
        assert batches == [[False]] * 8 + [[True]]


class TestReceiverDrain:
    def test_partial_frame_does_not_hold_whole_frames_back(self):
        """Two whole frames and half a third are buffered: the two are
        handed over at once, the third when its bytes arrive."""
        a, b = socket.socketpair()
        wire = [encode_frame(f) for f in _frames(3, 2048)]
        half = len(wire[2]) // 2
        a.sendall(wire[0] + wire[1] + wire[2][:half])
        outq = ClosableQueue(capacity=16, producers=1)
        stats = StageStats("recv")
        t = threading.Thread(
            target=receiver, args=(FramedReceiver(b), outq, stats),
            daemon=True,
        )
        t.start()
        try:
            first = outq.get_many(16, timeout=2.0)
        except QueueTimeout:
            first = []
        finally:
            a.sendall(wire[2][half:])
            a.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert [f.index for f in first] == [0, 1]
        assert [f.index for f in outq.get_many(16, timeout=2.0)] == [2]
        assert stats.errors == []


class TestTracedBatch:
    def test_each_traced_frame_keeps_its_send_and_recv_span(self):
        """Two traced frames in one drain: each gets a send and a recv
        span (a slice of the batch span), and the slices add up to the
        batch's seconds."""
        tel = Telemetry()
        tx, rx = socket_pipe()
        send_stats, recv_stats = StageStats("send"), StageStats("recv")
        # The sender finishes first, so the receiver finds every frame
        # buffered and drains them in one batch too.
        sender(tx, _closed_queue(_frames(6, 2048, traced={1, 4})),
               send_stats, telemetry=tel)
        outq = ClosableQueue(capacity=16, producers=1)
        receiver(rx, outq, recv_stats, telemetry=tel)
        assert send_stats.errors == recv_stats.errors == []
        assert len(outq.get_many(16)) == 6
        spans = tel.spans.snapshot()
        for stage, stats in (("send", send_stats), ("recv", recv_stats)):
            mine = sorted(
                (s for s in spans if s.stage == stage), key=lambda s: s.start
            )
            assert [s.chunk_id for s in mine] == [1, 4]
            assert mine[0].end == mine[1].start
            assert sum(s.duration for s in mine) == pytest.approx(
                stats.busy_seconds
            )
