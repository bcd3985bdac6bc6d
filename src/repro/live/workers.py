"""Worker-thread bodies for the live pipeline.

Each function is the target of one ``threading.Thread`` and mirrors a
Figure-2 stage: pull from the upstream queue, work, push downstream,
close on end-of-stream.  Failures are captured into the shared
:class:`StageStats` rather than dying silently inside a thread.

Per-chunk timing goes through the shared telemetry span idiom
(:func:`repro.telemetry.stage_span`): one context manager both feeds
the legacy :class:`StageStats` and — when a
:class:`~repro.telemetry.Telemetry` is attached — records a wall-clock
span plus the canonical pipeline counters, so a live run produces the
same observability surface as a simulated one.

From {C} to {D} a chunk is one :class:`~repro.live.transport.Frame` on
every plane: :func:`compressor` puts it on ``sendq``, and the senders
only stamp a traced frame's ``sent_at``.  In process mode a ring slot
is that frame plus an optional compress stamp (:mod:`repro.mp.records`,
where ``ChunkRecord`` is ``Frame`` for perfbench and packing now costs a
CRC-32: 0.05 → 0.12 ms per 256 KiB record).
"""

from __future__ import annotations

import select
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from repro.compress.codec import Codec, decompressor_for
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy
from repro.live.affinity import pin_current_thread
from repro.live.blocks import Block, split_frame
from repro.live.queues import ClosableQueue, Closed
from repro.live.transport import (
    IOV_GROUP,
    Frame,
    FramedReceiver,
    FramedSender,
    pack_blocks,
)
from repro.telemetry.spans import ActiveSpan, stage_span
from repro.util.errors import TransportError

#: What one send or receive handoff coalesces: only frames already
#: waiting (queued for the sender, whole in the receiver's buffer), at
#: most :data:`~repro.live.transport.IOV_GROUP` of them and no more
#: payload bytes than this.  The frame that would cross the bound waits
#: for the next handoff, and a frame as large travels alone, so only
#: small frames ever share a ``sendmsg``.
COALESCE_BYTES = 256 * 1024


@dataclass
class StageStats:
    """Thread-safe per-stage accounting."""

    name: str
    chunks: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    busy_seconds: float = 0.0
    errors: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, bytes_in: int, bytes_out: int, elapsed: float) -> None:
        with self._lock:
            self.chunks += 1
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
            self.busy_seconds += elapsed

    def fail(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)


def _maybe_pin(
    cpus: list[int] | None, role: str | None = None, telemetry=None
) -> None:
    if cpus:
        pin_current_thread(cpus, role=role, telemetry=telemetry)


def _finish(
    stats: StageStats,
    telemetry,
    stage: str,
    stream_id: str,
    bytes_in: int,
    bytes_out: int,
    elapsed: float,
) -> None:
    """Book one chunk into the legacy stats and the shared telemetry."""
    stats.record(bytes_in, bytes_out, elapsed)
    if telemetry is not None:
        telemetry.record_chunk(stage, stream_id, bytes_in)


def feeder(
    source: Iterable[Chunk],
    outq: ClosableQueue,
    stats: StageStats,
    cpus: list[int] | None = None,
    *,
    telemetry=None,
    sampler=None,
    split: Callable[[Chunk], list] | None = None,
) -> None:
    """Pushes source chunks into the pipeline (the data generator).

    One chunk per ``put_many`` handoff: the chunk itself, or all of its
    blocks when ``split`` (:func:`repro.live.blocks.split_chunk`, when
    the codec splits) turns it into several of the compress stage's
    work items.

    ``sampler`` (a :class:`repro.telemetry.HeadSampler`) is where flow
    tracing begins: the feeder assigns each head-sampled chunk its
    trace context before the chunk enters the pipeline, and every
    downstream hop merely forwards the mark.
    """
    _maybe_pin(cpus, "feed", telemetry)
    track = threading.current_thread().name
    try:
        for chunk in source:
            if chunk.payload is None:
                raise ValueError(
                    f"live chunks need payloads "
                    f"({chunk.stream_id}#{chunk.index})"
                )
            if sampler is not None and chunk.trace is None:
                chunk.trace = sampler.sample_chunk(chunk.stream_id, chunk.index)
            with stage_span(
                telemetry, "feed", stream_id=chunk.stream_id,
                chunk_id=chunk.index, track=track,
            ) as sp:
                outq.put_many([chunk] if split is None else split(chunk))
            n = len(chunk.payload)
            _finish(stats, telemetry, "feed", chunk.stream_id, n, n, sp.duration)
    except Exception as exc:  # noqa: BLE001 - thread boundary
        stats.fail(f"feeder: {exc!r}")
    finally:
        outq.close()


def compressor(
    codec: Codec,
    inq: ClosableQueue,
    outq: ClosableQueue,
    stats: StageStats,
    cpus: list[int] | None = None,
    *,
    telemetry=None,
) -> None:
    """{C}: compress chunk payloads into wire frames.

    A work item is a chunk or one :class:`~repro.live.blocks.Block` of
    one, taken one per handoff; the thread that compresses a chunk's
    last block packs the chunk's frame and forwards it.  Stats and
    counters book chunks, spans book each codec call.
    """
    _maybe_pin(cpus, "compress", telemetry)
    track = threading.current_thread().name
    try:
        while True:
            try:
                item = inq.get()
            except Closed:
                break
            if type(item) is Block:
                frame, busy = _compress_block(
                    codec, item, telemetry=telemetry, track=track
                )
                if frame is None:
                    continue
            else:
                with stage_span(
                    telemetry, "compress", stream_id=item.stream_id,
                    chunk_id=item.index, track=track,
                ) as sp:
                    wire, codec_id = codec.compress_with_id(item.payload)
                frame, busy = _compressed(item, wire, codec_id), sp.duration
            _finish(stats, telemetry, "compress", frame.stream_id,
                    frame.orig_len, len(frame.payload), busy)
            outq.put(frame)
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"compressor: {exc!r}")
    finally:
        outq.close()


def _compressed(
    chunk: Chunk, payload: bytes, codec_id: int, blocks: tuple[int, ...] = ()
) -> Frame:
    """The frame that carries ``chunk`` compressed to ``payload``."""
    return Frame(
        chunk.stream_id, chunk.index, payload, compressed=True,
        orig_len=len(chunk.payload), codec_id=codec_id,
        traced=chunk.trace is not None, blocks=blocks,
    )


def _compress_block(
    codec: Codec, block: "Block[Chunk]", *, telemetry, track: str
) -> "tuple[Frame | None, float]":
    """Compress one block; once it was its chunk's last, pack the
    chunk's frame and return it with the chunk's summed codec seconds."""
    chunk = block.join.owner
    with stage_span(
        telemetry, "compress", stream_id=chunk.stream_id,
        chunk_id=chunk.index, track=track,
    ) as sp:
        wire, codec_id = codec.compress_with_id(block.data)
    if not block.join.done(block.slot, wire, sp.duration):
        return None, 0.0
    payload, sizes = pack_blocks(block.join.parts)
    return _compressed(chunk, payload, codec_id, sizes), block.join.busy


def _note_wire(telemetry, frame: Frame, *, arrived: float | None = None) -> None:
    """Record the wire span + clock-align sample of one traced frame.

    The span runs from the sender's trailer stamp to arrival on the
    receiver's clock.  On a loopback pipeline both stamps share one
    monotonic clock so the interval is exact; across hosts the pair
    also feeds the telemetry's :class:`~repro.telemetry.ClockAlign`
    estimator, whose offset bound the ``/trace`` endpoint reports.
    """
    if telemetry is None or not frame.traced:
        return
    now = arrived if arrived is not None else time.perf_counter()
    telemetry.trace_align.observe(frame.sent_at, now)
    start = min(frame.sent_at, now) if frame.sent_at > 0 else now
    telemetry.record_span(
        "wire", start, now, stream_id=frame.stream_id, chunk_id=frame.index
    )


def _payload_bytes(frame: Frame) -> int:
    return len(frame.payload)


def _share_span(
    telemetry, sp: ActiveSpan, traced: "Sequence[Frame | Chunk]"
) -> None:
    """Give every traced chunk of a batch its own span of ``sp``'s stage.

    The batch interval is cut into equal consecutive slices, one per
    traced chunk (or its frame) in batch order, so each sampled chunk's
    journey has the stage and the stage's summed seconds stay the
    batch's.  The caller discards ``sp`` itself whenever ``traced`` is
    not empty.
    """
    if telemetry is None or not traced:
        return
    step = sp.duration / len(traced)
    for i, item in enumerate(traced):
        telemetry.record_span(
            sp.stage, sp.start + i * step, sp.start + (i + 1) * step,
            stream_id=item.stream_id, chunk_id=item.index, track=sp.track,
        )


def _pump(
    inq: ClosableQueue,
    deliver: Callable[[Sequence[Frame]], None],
    stats: StageStats,
    *,
    telemetry,
    settle: Callable[[], None] | None = None,
) -> set[str]:
    """The send loop both senders share; returns the stream ids seen.

    Until ``inq`` closes: drain the frames already queued, up to
    :data:`COALESCE_BYTES`, in one lock round-trip, hand the batch to
    ``deliver`` under one ``send`` span and book each chunk.  ``settle``
    runs after every batch, outside the span (the resilient sender
    collects ACKs there).
    """
    track = threading.current_thread().name
    stream_ids: set[str] = set()
    while True:
        try:
            batch = inq.get_many(
                IOV_GROUP, max_bytes=COALESCE_BYTES, size=_payload_bytes
            )
        except Closed:
            return stream_ids
        # A traced frame is stamped just before transmit: the start of
        # its wire interval, send syscall included (repro.telemetry.assemble
        # documents the overlap).
        frames = [
            replace(f, sent_at=time.perf_counter()) if f.traced else f
            for f in batch
        ]
        traced = [f for f in frames if f.traced]
        with stage_span(
            telemetry, "send", stream_id=frames[0].stream_id,
            chunk_id=frames[0].index, track=track,
        ) as sp:
            sp.discard = bool(traced)
            deliver(frames)
        _share_span(telemetry, sp, traced)
        per_chunk = sp.duration / len(frames)
        for frame in frames:
            stream_ids.add(frame.stream_id)
            _finish(stats, telemetry, "send", frame.stream_id,
                    len(frame.payload), len(frame.payload), per_chunk)
        if settle is not None:
            settle()


def sender(
    transport: FramedSender,
    inq: ClosableQueue,
    stats: StageStats,
    *,
    cpus: list[int] | None = None,
    telemetry=None,
) -> None:
    """{S}: one TCP connection's sending thread.

    Each batch :func:`_pump` drains (the small frames already queued,
    up to :data:`COALESCE_BYTES`; a large frame alone) goes out with one
    vectored :meth:`~repro.live.transport.FramedSender.send_many`.
    Frames are self-delimiting, so the wire bytes are those of sending
    each frame on its own; only the syscall and lock counts change.
    The last batch is sent before the EOS frames.
    """
    _maybe_pin(cpus, "send", telemetry)
    try:
        stream_ids = _pump(inq, transport.send_many, stats, telemetry=telemetry)
        # One write for every EOS: the receiver stops at the first one
        # and drops the socket, so a second write could meet EPIPE.
        transport.send_many(
            [Frame.end_of_stream(sid) for sid in sorted(stream_ids or {"-"})]
        )
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"sender: {exc!r}")
    finally:
        transport.close()


def resilient_sender(
    transport: FramedSender,
    reconnect: Callable[[], FramedSender],
    inq: ClosableQueue,
    stats: StageStats,
    *,
    retry: RetryPolicy,
    drain_timeout: float = 30.0,
    cpus: list[int] | None = None,
    telemetry=None,
) -> None:
    """{S} with recovery: one TCP connection's at-least-once sender.

    Every frame is retained until the receiver's ACK comes back on the
    same socket; a send failure (or a dead connection discovered while
    draining ACKs) triggers a reconnect with capped exponential backoff
    (``retry``) followed by an in-order replay of the unacknowledged
    tail.  The receiver deduplicates on (stream, index), which turns
    at-least-once delivery into exactly-once at the sink.

    ``reconnect`` must return a fresh connected :class:`FramedSender`
    (same telemetry/injector wiring as ``transport``); it is only
    called after the initial connection dies.  When no faults fire the
    hot path is one ``send_many`` plus a zero-timeout ``select`` per
    batch :func:`_pump` drains.
    """
    _maybe_pin(cpus, "send", telemetry)
    track = threading.current_thread().name
    unacked: "OrderedDict[tuple[str, int, bool], Frame]" = OrderedDict()
    state: dict = {"tx": transport, "rx": FramedReceiver(transport.sock)}

    def _drop_connection() -> None:
        tx = state["tx"]
        if tx is not None:
            try:
                tx.sock.close()
            except OSError:
                pass
        state["tx"] = state["rx"] = None

    def _reconnect() -> None:
        last: Exception | None = None
        for attempt in range(retry.max_attempts):
            if attempt:
                # Back off only *between* failed attempts — when the
                # endpoint is immediately reachable, attempt 0 must not
                # add dead time to the recovery path.
                time.sleep(retry.backoff(attempt - 1))
            if telemetry is not None:
                telemetry.record_retry()
                telemetry.emit_event(
                    "transport_retry",
                    f"reconnect attempt {attempt + 1}/{retry.max_attempts} "
                    f"on {track}",
                    severity="warning",
                    worker=track,
                    attempt=attempt + 1,
                    unacked=len(unacked),
                )
            try:
                tx = reconnect()
                state["tx"], state["rx"] = tx, FramedReceiver(tx.sock)
                for frame in list(unacked.values()):
                    tx.send(frame)
                    if telemetry is not None:
                        telemetry.record_redelivery()
                return
            except (TransportError, OSError) as exc:
                last = exc
                _drop_connection()
        raise TransportError(
            f"reconnect gave up after {retry.max_attempts} attempts: {last}"
        )

    def _collect_acks(timeout: float) -> None:
        """Pop acknowledged frames; raises when the connection is dead."""
        tx, rx = state["tx"], state["rx"]
        if tx is None:
            raise TransportError("not connected")
        while unacked:
            # The buffered receiver may already hold a whole ACK frame
            # in userspace — select() only sees the kernel buffer.
            if not rx.pending:
                try:
                    ready, _, _ = select.select([tx.sock], [], [], timeout)
                except (OSError, ValueError) as exc:
                    raise TransportError(f"connection lost: {exc}") from exc
                if not ready:
                    return
            frame = rx.recv()
            if frame is None:
                raise TransportError("connection closed while awaiting acks")
            if frame.ack:
                unacked.pop(frame.key, None)
            timeout = 0.0

    def _deliver_many(frames: Sequence[Frame]) -> None:
        """Transmit a batch (or queue for replay); never loses frames."""
        for frame in frames:
            unacked[frame.key] = frame
        while True:
            tx = state["tx"]
            if tx is None:
                _reconnect()  # replays unacked, including these frames
                return
            try:
                tx.send_many(frames)
                return
            except (TransportError, OSError):
                _drop_connection()

    def _settle() -> None:
        try:
            _collect_acks(0.0)
        except (TransportError, OSError):
            _drop_connection()

    try:
        stream_ids = _pump(
            inq, _deliver_many, stats, telemetry=telemetry, settle=_settle,
        )
        for sid in sorted(stream_ids) or ["-"]:
            _deliver_many((Frame.end_of_stream(sid),))
        deadline = time.monotonic() + drain_timeout
        while unacked:
            if time.monotonic() > deadline:
                raise TransportError(
                    f"{len(unacked)} frames unacknowledged after "
                    f"{drain_timeout}s"
                )
            try:
                _collect_acks(0.2)
            except (TransportError, OSError):
                _drop_connection()
                _reconnect()
    except Exception as exc:  # noqa: BLE001 - thread boundary
        stats.fail(f"sender: {exc!r}")
    finally:
        tx = state["tx"]
        if tx is not None:
            tx.close()


def receiver(
    transport: FramedReceiver,
    outq: ClosableQueue,
    stats: StageStats,
    cpus: list[int] | None = None,
    *,
    telemetry=None,
    split: Callable[[Frame], list] | None = None,
) -> None:
    """{R}: one TCP connection's receiving thread.

    After each blocking ``recv``, the frames already *whole* in the
    receiver's userspace buffer (:meth:`FramedReceiver.next_frame`, up
    to :data:`COALESCE_BYTES`) join the same ``put_many`` handoff — the
    downstream mirror of the sender's vectored batch, with no extra
    waiting: a partial frame behind them stays buffered for the next
    ``recv``.

    ``split`` (:func:`repro.live.blocks.split_frame`, when the sending
    side cuts chunks into blocks) hands the decompress stage one job per
    block, so all its threads decode one chunk.
    """
    _maybe_pin(cpus, "recv", telemetry)
    track = threading.current_thread().name
    try:
        done = False
        while not done:
            batch: list[Frame] = []
            traced: list[Frame] = []
            with stage_span(telemetry, "recv", track=track) as sp:
                frame = transport.recv()
                if frame is None or frame.eos:
                    sp.discard = True
                    done = True
                else:
                    sp.stream_id = frame.stream_id
                    sp.chunk_id = frame.index
                    batch.append(frame)
                    nbytes = len(frame.payload)
                    while len(batch) < IOV_GROUP and nbytes < COALESCE_BYTES:
                        nxt = transport.next_frame()
                        if nxt is None:
                            break
                        if nxt.eos:
                            done = True
                            break
                        batch.append(nxt)
                        nbytes += len(nxt.payload)
                    # The wire interval ends when the frame came off
                    # the socket — not at sp.start, which is when this
                    # thread began *waiting* for it.
                    arrived = time.perf_counter()
                    traced = [f for f in batch if f.traced]
                    for f in traced:
                        _note_wire(telemetry, f, arrived=arrived)
                    sp.discard = bool(traced)
            if not batch:
                break
            _share_span(telemetry, sp, traced)
            per_chunk = sp.duration / len(batch)
            for frame in batch:
                _finish(stats, telemetry, "recv", frame.stream_id,
                        len(frame.payload), len(frame.payload), per_chunk)
            jobs = batch if split is None else [j for f in batch for j in split(f)]
            outq.put_many(jobs)
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"receiver: {exc!r}")
    finally:
        transport.close()
        outq.close()


def decompressor(
    codec: Codec,
    inq: ClosableQueue,
    stats: StageStats,
    sink: Callable[[str, int, bytes | bytearray], None],
    cpus: list[int] | None = None,
    *,
    telemetry=None,
) -> None:
    """{D}: decompress received frames and deliver to the sink.

    A work item is a frame or one :class:`~repro.live.blocks.Block` of
    a blocked frame, taken one per handoff; the thread that decodes a
    chunk's last block joins the output and delivers the chunk.  A
    blocked frame that arrives whole (the event plane enqueues a frame
    all-or-nothing) has its blocks decoded here, in turn.
    """
    _maybe_pin(cpus, "decompress", telemetry)
    track = threading.current_thread().name
    try:
        while True:
            try:
                item = inq.get()
            except Closed:
                break
            if type(item) is Block:
                _decompress_block(
                    codec, item, stats, sink, telemetry=telemetry, track=track
                )
            elif item.blocks:
                for block in split_frame(item):
                    _decompress_block(
                        codec, block, stats, sink,
                        telemetry=telemetry, track=track,
                    )
            else:
                _decompress_one(
                    codec, item, stats, sink, telemetry=telemetry, track=track
                )
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"decompressor: {exc!r}")


def _decoder(codec: Codec, frame: Frame) -> Codec:
    # The frame header names its codec (the wire format stays
    # self-describing, so a receiver can decode a codec it was not
    # configured with); id 0, what every static sender stamps, falls
    # back to the configured codec.
    return decompressor_for(frame.codec_id) if frame.codec_id else codec


def _decompress_one(
    codec: Codec,
    frame: Frame,
    stats: StageStats,
    sink: Callable[[str, int, bytes | bytearray], None],
    *,
    telemetry,
    track: str,
) -> None:
    with stage_span(
        telemetry, "decompress", stream_id=frame.stream_id,
        chunk_id=frame.index, track=track,
    ) as sp:
        if not frame.compressed:
            data = frame.payload
        else:
            data = _decoder(codec, frame).decompress(frame.payload)
    _deliver(frame, data, sp.duration, stats, sink, telemetry)


def _decompress_block(
    codec: Codec,
    block: "Block[Frame]",
    stats: StageStats,
    sink: Callable[[str, int, bytes | bytearray], None],
    *,
    telemetry,
    track: str,
) -> None:
    """Decode one block; the thread that decodes a chunk's last block
    joins the output and delivers the chunk."""
    frame = block.join.owner
    with stage_span(
        telemetry, "decompress", stream_id=frame.stream_id,
        chunk_id=frame.index, track=track,
    ) as sp:
        part = _decoder(codec, frame).decompress(block.data)
    if block.join.done(block.slot, part, sp.duration):
        data = b"".join(block.join.parts)
        _deliver(frame, data, block.join.busy, stats, sink, telemetry)


def _deliver(
    frame: Frame,
    data: bytes | bytearray,
    busy: float,
    stats: StageStats,
    sink: Callable[[str, int, bytes | bytearray], None],
    telemetry,
) -> None:
    """Check a decoded chunk against its frame, book it, hand it on."""
    if frame.orig_len and len(data) != frame.orig_len:
        raise ValueError(
            f"{frame.stream_id}#{frame.index}: decompressed to "
            f"{len(data)} bytes, expected {frame.orig_len}"
        )
    _finish(stats, telemetry, "decompress", frame.stream_id,
            len(frame.payload), len(data), busy)
    sink(frame.stream_id, frame.index, data)
