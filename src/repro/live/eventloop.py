"""Selector-based receiver plane: thousands of streams per core.

A Python thread per socket is ~8 MB of stack and a scheduler entry
each — it collapses long before the ROADMAP's thousands-of-tenants
target.  :class:`~repro.live.remote.ReceiverServer` therefore receives
on a small fixed pool of **reactor shards**:
each shard is one thread running a non-blocking
``selectors.DefaultSelector`` loop that multiplexes many connections,
parsing frames out of :meth:`FramedReceiver.feed` /
:meth:`~repro.live.transport.FramedReceiver.next_frame` (partial
frames resume where they left off).

Connections are assigned to shards by the plan's RSS-style policy
(:func:`repro.plan.ir.stream_shard` — CRC-32 of the stream id modulo
the shard count): the software analogue of the paper's NIC hash→queue
fan-out (Obs 3/4), so a stream's frames are processed by one shard and
stay cache-local, mirroring BriskStream's relative-location-aware
placement.  A freshly accepted socket is parked on an arbitrary shard
until its first data frame names its stream, then migrates (with its
read-ahead buffer) to the shard the hash picked.

Fair-share backpressure, per tenant: the plane tracks an in-flight
byte budget per stream (claimed but not yet delivered to the sink).  A
slow consumer's streams get their sockets *deferred* — read interest
unregistered, ``repro_receiver_deferred_total{stream}`` bumped, a
watchdog-visible ``backpressure`` event emitted — instead of stalling
the shard, and resume once the decompress side drains below half the
budget.  A full decompress queue likewise defers just the stalled
connection; the shard keeps serving everyone else.

Delivery semantics (the chaos suite holds the plane to them): every
accepted frame is ACKed, duplicates are dropped by the shared
:class:`~repro.live.dedup.StreamDedup` watermark, and a
frame is only ACKed after it is safely enqueued — a claimed frame
whose connection dies first is re-parented to the plane and enqueued
from there, never lost.
"""

from __future__ import annotations

import os
import selectors
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.live.dedup import StreamDedup
from repro.live.transport import Frame, FramedReceiver, encode_frame_header
from repro.live.workers import _note_wire
from repro.plan.ir import stream_shard
from repro.telemetry.spans import stage_span
from repro.util.errors import FrameIntegrityError, QueueTimeout

if TYPE_CHECKING:
    from repro.live.queues import ClosableQueue
    from repro.live.workers import StageStats

#: Bytes pulled off a readable socket per loop visit.
_RECV_SIZE = 1 << 18

#: Selector timeout — the cadence for retrying stalled/orphaned frames.
_TICK = 0.05

#: Default per-stream in-flight byte budget (claimed, not yet at the
#: sink) before the stream's connections are deferred.
DEFAULT_STREAM_BUDGET = 32 << 20


def default_shards(cpu_count: int | None = None) -> int:
    """Auto shard count: one per core this receiver's domain offers."""
    n = cpu_count if cpu_count is not None else os.cpu_count() or 1
    return max(1, min(8, n))


class _Conn:
    """Per-connection state owned by exactly one shard at a time."""

    __slots__ = (
        "sock",
        "rx",
        "out_buf",
        "stream_id",
        "saw_eos",
        "closed",
        "registered",
        "stalled_frame",
        "stalled_since",
        "handoff_frame",
        "budget_deferred",
        "shard",
    )

    def __init__(self, sock: socket.socket, rx: FramedReceiver) -> None:
        self.sock = sock
        self.rx = rx
        self.out_buf = bytearray()
        #: Stream named by the first data frame (migration key).
        self.stream_id: str | None = None
        self.saw_eos = False
        self.closed = False
        self.registered = False
        #: Claimed frame waiting for decompress-queue room; parks the
        #: connection (read interest off) until it lands.
        self.stalled_frame: Frame | None = None
        #: When the stall began — the deferral span's start for traced
        #: frames (0.0 = no stall in progress).
        self.stalled_since = 0.0
        #: Parsed-but-unprocessed frame riding along a shard migration.
        self.handoff_frame: Frame | None = None
        #: Deferred by the per-stream in-flight budget (fair share).
        self.budget_deferred = False
        self.shard: "ReactorShard | None" = None

    @property
    def want_read(self) -> bool:
        return (
            not self.closed
            and self.stalled_frame is None
            and not self.budget_deferred
        )


class _StreamState:
    """Per-tenant accounting: in-flight bytes + deferral episode."""

    __slots__ = ("in_flight", "deferred_conns", "episode")

    def __init__(self) -> None:
        self.in_flight = 0
        self.deferred_conns: set[_Conn] = set()
        self.episode = False


class ReactorShard(threading.Thread):
    """One selector loop multiplexing a slice of the connections."""

    def __init__(self, plane: "EventLoopPlane", index: int) -> None:
        super().__init__(name=f"recv-shard-{index}", daemon=True)
        self.index = index
        self.plane = plane
        self._sel = selectors.DefaultSelector()
        self._wake_rx, self._wake_tx = socket.socketpair()
        self._wake_rx.setblocking(False)
        self._wake_tx.setblocking(False)
        self._sel.register(self._wake_rx, selectors.EVENT_READ, None)
        self._inbox: deque[_Conn] = deque()
        self._inbox_lock = threading.Lock()
        self._conns: set[_Conn] = set()
        self._stalled: set[_Conn] = set()
        self._halt = threading.Event()

    # -- cross-thread handoff -------------------------------------------

    def wake(self) -> None:
        try:
            self._wake_tx.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # a pending wakeup byte already does the job

    def submit(self, conn: _Conn) -> None:
        """Hand a connection (new, migrated, or resumed) to this shard."""
        with self._inbox_lock:
            self._inbox.append(conn)
        self.wake()

    def stop(self) -> None:
        self._halt.set()
        self.wake()

    # -- the loop --------------------------------------------------------

    def run(self) -> None:
        try:
            while not self._halt.is_set():
                self._drain_inbox()
                self._retry_stalled()
                self.plane.flush_orphans(blocking=False)
                for key, mask in self._sel.select(_TICK):
                    if key.data is None:
                        self._drain_wakeup()
                        continue
                    conn: _Conn = key.data
                    if mask & selectors.EVENT_WRITE and not conn.closed:
                        self._flush_out(conn)
                    if mask & selectors.EVENT_READ and not conn.closed:
                        self._on_readable(conn)
        except Exception as exc:  # pragma: no cover - defensive
            self.plane.shard_crashed(self.name, exc)
        finally:
            for conn in list(self._conns):
                self._close_conn(conn)
            self._sel.close()
            self._wake_rx.close()
            self._wake_tx.close()

    def _drain_wakeup(self) -> None:
        try:
            while self._wake_rx.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _drain_inbox(self) -> None:
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                conn = self._inbox.popleft()
            if conn.closed:
                continue
            conn.shard = self
            if conn in self._conns:
                # Resume after a budget deferral.
                conn.budget_deferred = False
                self._update_registration(conn)
                self._drain_frames(conn)
                continue
            self._conns.add(conn)
            handoff = conn.handoff_frame
            if handoff is not None:
                conn.handoff_frame = None
                self._process_data(conn, handoff)
            self._drain_frames(conn)

    def _retry_stalled(self) -> None:
        for conn in list(self._stalled):
            frame = conn.stalled_frame
            if conn.closed or frame is None:
                self._stalled.discard(conn)
                continue
            if not self.plane.enqueue(frame):
                continue
            conn.stalled_frame = None
            self._stalled.discard(conn)
            self._note_defer(conn, frame)
            self._queue_ack(conn, frame)
            self._check_budget(conn, frame.stream_id)
            self._update_registration(conn)
            self._drain_frames(conn)

    # -- selector bookkeeping -------------------------------------------

    def _update_registration(self, conn: _Conn) -> None:
        if conn.closed:
            return
        mask = 0
        if conn.want_read:
            mask |= selectors.EVENT_READ
        if conn.out_buf:
            mask |= selectors.EVENT_WRITE
        if mask and conn.registered:
            self._sel.modify(conn.sock, mask, conn)
        elif mask:
            self._sel.register(conn.sock, mask, conn)
            conn.registered = True
        elif conn.registered:
            self._sel.unregister(conn.sock)
            conn.registered = False

    def _close_conn(self, conn: _Conn) -> None:
        if conn.closed:
            return
        if conn.registered:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.registered = False
        conn.closed = True
        self._conns.discard(conn)
        self._stalled.discard(conn)
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn.stalled_frame is not None:
            # Claimed but not yet enqueued: the plane owns it now, so
            # the chunk is delivered even though its ACK never went out
            # (the sender replays; the replay dedups and ACKs).
            self.plane.orphan(conn.stalled_frame)
            conn.stalled_frame = None
        self.plane.conn_closed(conn)

    # -- I/O -------------------------------------------------------------

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.rx.feed(data)
        self._drain_frames(conn)

    def _flush_out(self, conn: _Conn) -> None:
        try:
            while conn.out_buf:
                sent = conn.sock.send(conn.out_buf)
                del conn.out_buf[:sent]
        except BlockingIOError:
            pass
        except OSError:
            self._close_conn(conn)
            return
        self._update_registration(conn)

    def _queue_ack(self, conn: _Conn, frame: Frame) -> None:
        if conn.closed:
            return
        conn.out_buf += encode_frame_header(Frame.ack_for(frame))
        self._flush_out(conn)

    # -- frame processing ------------------------------------------------

    def _drain_frames(self, conn: _Conn) -> None:
        while not conn.closed and conn.stalled_frame is None:
            try:
                frame = conn.rx.next_frame()
            except FrameIntegrityError:
                # The byte stream can't be trusted for framing any
                # more: drop the connection, let the sender replay.
                self.plane.record_rejected()
                self._close_conn(conn)
                return
            if frame is None:
                self._update_registration(conn)
                return
            self.plane.bump_progress()
            if frame.ack:
                continue  # senders don't ACK; tolerate and move on
            if frame.eos:
                conn.saw_eos = True
                self._queue_ack(conn, frame)
                continue
            if conn.stream_id is None:
                conn.stream_id = frame.stream_id
                target = self.plane.shard_for(frame.stream_id)
                if target is not self:
                    self._migrate(conn, target, frame)
                    return
            self._process_data(conn, frame)
        self._update_registration(conn)

    def _migrate(
        self, conn: _Conn, target: "ReactorShard", frame: Frame
    ) -> None:
        """Move the connection (and its read-ahead) to its home shard.

        The triggering frame travels as the handoff frame so the
        target processes it before draining the rest of the buffer —
        order per connection is preserved, and this shard stops
        touching the state the moment it is submitted.
        """
        if conn.registered:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.registered = False
        self._conns.discard(conn)
        conn.handoff_frame = frame
        target.submit(conn)

    def _process_data(self, conn: _Conn, frame: Frame) -> None:
        plane = self.plane
        if frame.traced:
            _note_wire(plane.telemetry, frame)
        with stage_span(plane.telemetry, "recv", track=self.name) as sp:
            sp.stream_id = frame.stream_id
            sp.chunk_id = frame.index
            fresh = plane.claim(frame)
        if not fresh:
            plane.record_dedup()
            self._queue_ack(conn, frame)
            return
        plane.record_fresh(frame, sp.duration)
        if plane.enqueue(frame):
            self._queue_ack(conn, frame)
        else:
            conn.stalled_frame = frame
            conn.stalled_since = time.perf_counter()
            self._stalled.add(conn)
            plane.note_deferred(frame.stream_id, conn, reason="queue-full")
        self._check_budget(conn, frame.stream_id)

    def _note_defer(self, conn: _Conn, frame: Frame) -> None:
        """Close out a traced frame's deferral episode as a span."""
        since, conn.stalled_since = conn.stalled_since, 0.0
        if not frame.traced or since <= 0:
            return
        tel = self.plane.telemetry
        if tel is not None:
            tel.record_span(
                "defer", since, time.perf_counter(),
                stream_id=frame.stream_id, chunk_id=frame.index,
                track=self.name,
            )

    def _check_budget(self, conn: _Conn, stream_id: str) -> None:
        if conn.closed or conn.budget_deferred:
            return
        if self.plane.over_budget(stream_id):
            conn.budget_deferred = True
            self.plane.note_deferred(stream_id, conn, reason="budget")
            self._update_registration(conn)


class EventLoopPlane:
    """The shard pool plus the shared per-stream accounting."""

    def __init__(
        self,
        *,
        shards: int,
        wireq: "ClosableQueue",
        recv_stats: "StageStats",
        telemetry: Any | None = None,
        stream_budget_bytes: int = DEFAULT_STREAM_BUDGET,
    ) -> None:
        self.telemetry = telemetry
        self.wireq = wireq
        self.recv_stats = recv_stats
        self.stream_budget_bytes = stream_budget_bytes
        self._lock = threading.Lock()
        self._dedup = StreamDedup()
        self._pending: dict[tuple[str, int], int] = {}
        self._streams: dict[str, _StreamState] = {}
        self._orphans: deque[Frame] = deque()
        self._finished = 0
        self._progress = 0
        self._deferrals = 0
        self._errors: list[str] = []
        self._round_robin = 0
        self.shards = [
            ReactorShard(self, i) for i in range(max(1, shards))
        ]

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def add_connection(self, sock: socket.socket) -> None:
        """Adopt a freshly accepted socket (round-robin until its first
        data frame names the stream and the RSS hash picks its home)."""
        sock.setblocking(False)
        conn = _Conn(sock, FramedReceiver(sock, telemetry=self.telemetry))
        shard = self.shards[self._round_robin % len(self.shards)]
        self._round_robin += 1
        shard.submit(conn)

    def stop(self, join_timeout: float) -> list[str]:
        """Stop every shard and surface any shard-level errors."""
        for shard in self.shards:
            shard.stop()
        errors: list[str] = []
        for shard in self.shards:
            shard.join(join_timeout)
            if shard.is_alive():
                errors.append(f"thread {shard.name} did not finish")
        self.flush_orphans(blocking=True, timeout=join_timeout)
        with self._lock:
            errors.extend(self._errors)
            if self._orphans:
                errors.append(
                    f"{len(self._orphans)} claimed frames never reached "
                    "the decompress queue"
                )
        return errors

    def shard_crashed(self, name: str, exc: Exception) -> None:
        with self._lock:
            self._errors.append(f"shard {name} crashed: {exc!r}")

    # -- progress / finish accounting -----------------------------------

    @property
    def finished(self) -> int:
        with self._lock:
            return self._finished

    @property
    def progress(self) -> int:
        with self._lock:
            return self._progress

    @property
    def deferrals(self) -> int:
        with self._lock:
            return self._deferrals

    def bump_progress(self) -> None:
        with self._lock:
            self._progress += 1

    def conn_closed(self, conn: _Conn) -> None:
        with self._lock:
            if conn.saw_eos:
                self._finished += 1
            self._progress += 1

    # -- sharding --------------------------------------------------------

    def shard_for(self, stream_id: str) -> ReactorShard:
        return self.shards[stream_shard(stream_id, len(self.shards))]

    # -- dedup + per-tenant budget ---------------------------------------

    def claim(self, frame: Frame) -> bool:
        """Atomically dedup-claim a data frame; True when it is new.

        A claimed frame is owned by the plane until it reaches the
        decompress queue — in-flight bytes are accounted here and
        released by :meth:`on_delivered`.
        """
        size = len(frame.payload)
        with self._lock:
            fresh = self._dedup.claim(frame.stream_id, frame.index)
            if fresh:
                self._pending[(frame.stream_id, frame.index)] = size
                state = self._streams.get(frame.stream_id)
                if state is None:
                    state = self._streams[frame.stream_id] = _StreamState()
                state.in_flight += size
        return fresh

    def over_budget(self, stream_id: str) -> bool:
        with self._lock:
            state = self._streams.get(stream_id)
            return (
                state is not None
                and state.in_flight > self.stream_budget_bytes
            )

    def note_deferred(
        self, stream_id: str, conn: _Conn, *, reason: str
    ) -> None:
        """Record one fair-share deferral (telemetry + watchdog event)."""
        first = False
        with self._lock:
            self._deferrals += 1
            state = self._streams.get(stream_id)
            if state is not None and reason == "budget":
                state.deferred_conns.add(conn)
                if not state.episode:
                    state.episode = True
                    first = True
        if self.telemetry is not None:
            self.telemetry.record_deferred(stream_id)
            if first:
                self.telemetry.emit_event(
                    "backpressure",
                    f"stream {stream_id} over in-flight budget; "
                    "reads deferred",
                    severity="warning",
                    queue=f"recv:{stream_id}",
                    stream=stream_id,
                    budget_bytes=self.stream_budget_bytes,
                )

    def on_delivered(self, stream_id: str, index: int) -> None:
        """Sink callback: release in-flight bytes, resume if drained."""
        resume: list[_Conn] = []
        with self._lock:
            size = self._pending.pop((stream_id, index), 0)
            state = self._streams.get(stream_id)
            if state is None:
                return
            state.in_flight -= size
            if (
                state.episode
                and state.in_flight <= self.stream_budget_bytes // 2
            ):
                state.episode = False
                resume = [c for c in state.deferred_conns if not c.closed]
                state.deferred_conns.clear()
        for conn in resume:
            shard = conn.shard
            if shard is not None:
                shard.submit(conn)

    # -- decompress-queue handoff ----------------------------------------

    def enqueue(self, frame: Frame) -> bool:
        """Non-blocking put toward the decompressors; False when full."""
        try:
            self.wireq.put(frame, timeout=0)
        except QueueTimeout:
            return False
        return True

    def orphan(self, frame: Frame) -> None:
        with self._lock:
            self._orphans.append(frame)

    def flush_orphans(
        self, *, blocking: bool, timeout: float | None = None
    ) -> None:
        """Enqueue claimed frames whose connection died first."""
        while True:
            with self._lock:
                if not self._orphans:
                    return
                frame = self._orphans.popleft()
            try:
                self.wireq.put(frame, timeout=timeout if blocking else 0)
            except QueueTimeout:
                with self._lock:
                    self._orphans.appendleft(frame)
                return

    # -- stats -----------------------------------------------------------

    def record_fresh(self, frame: Frame, duration: float) -> None:
        size = len(frame.payload)
        self.recv_stats.record(size, size, duration)
        if self.telemetry is not None:
            self.telemetry.record_chunk("recv", frame.stream_id, size)

    def record_dedup(self) -> None:
        if self.telemetry is not None:
            self.telemetry.record_dedup()

    def record_rejected(self) -> None:
        if self.telemetry is not None:
            self.telemetry.record_rejected()


def run_accept_loop(
    plane: EventLoopPlane,
    listener: socket.socket,
    *,
    connections: int,
    accept_timeout: float,
    errors: list[str],
) -> None:
    """Accept (and re-accept) sockets until every logical connection
    finished; gives up when nothing (no accept, no frame, no close)
    made progress for ``accept_timeout`` seconds."""
    accepted = 0
    listener.settimeout(min(0.25, accept_timeout / 2))
    last_progress = -1
    last_change = time.monotonic()
    while True:
        finished = plane.finished
        progress = plane.progress
        if finished >= connections:
            break
        now = time.monotonic()
        if progress != last_progress:
            last_progress = progress
            last_change = now
        elif now - last_change > accept_timeout:
            errors.append(
                f"timed out waiting for {connections} "
                f"connections to finish ({finished} complete, "
                f"{accepted} accepted)"
            )
            break
        try:
            conn, _addr = listener.accept()
        except (TimeoutError, socket.timeout):
            continue
        except OSError as exc:
            errors.append(f"accept failed: {exc}")
            break
        plane.bump_progress()
        plane.add_connection(conn)
        accepted += 1
