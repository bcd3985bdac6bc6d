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
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.compress.codec import Codec, decompressor_for, wire_codec_name
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy
from repro.live.affinity import pin_current_thread
from repro.live.blocks import Block, split_frame
from repro.live.queues import ClosableQueue, Closed
from repro.live.stageset import Knobs
from repro.live.transport import Frame, FramedReceiver, FramedSender, pack_blocks
from repro.telemetry.spans import stage_span
from repro.util.errors import QueueTimeout, TransportError

if TYPE_CHECKING:
    from repro.telemetry.facade import Telemetry

#: How often a stoppable worker wakes from an idle queue to re-check
#: its stop event (seconds) — bounds scale-down/respawn latency.
STOP_POLL_SECONDS = 0.1


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


def record_codec(
    telemetry: Telemetry | None, stage: str, frame: Frame, codec: Codec
) -> None:
    """Bump the codec-choice counter for ``frame``: the codec its wire id
    names, or the configured ``codec`` for id 0."""
    if telemetry is not None:
        name = wire_codec_name(frame.codec_id) if frame.codec_id else codec.name
        telemetry.record_codec(stage, frame.stream_id, name)


def feeder(
    source: Iterable[Chunk],
    outq: ClosableQueue,
    stats: StageStats,
    cpus: list[int] | None = None,
    *,
    knobs: Knobs,
    telemetry=None,
    sampler=None,
    split: Callable[[Chunk], list] | None = None,
) -> None:
    """Pushes source chunks into the pipeline (the data generator).

    ``knobs.batch_frames > 1`` groups chunks into one ``put_many``
    handoff (one lock round-trip, one span); 1 keeps the historical
    chunk-at-a-time behaviour.  The knob is re-read before every batch,
    so the controller can hot-swap it.

    ``sampler`` (a :class:`repro.telemetry.HeadSampler`) is where flow
    tracing begins: the feeder assigns each head-sampled chunk its
    trace context before the chunk enters the pipeline, and every
    downstream hop merely forwards the mark.

    ``split`` (:func:`repro.live.blocks.split_chunk`, when the codec
    splits) turns each chunk into the compress stage's work items.
    """
    _maybe_pin(cpus, "feed", telemetry)
    track = threading.current_thread().name
    it = iter(source)
    try:
        while True:
            batch = list(islice(it, knobs.batch_frames))
            if not batch:
                break
            head = batch[0]
            for chunk in batch:
                if chunk.payload is None:
                    raise ValueError(
                        f"live chunks need payloads "
                        f"({chunk.stream_id}#{chunk.index})"
                    )
                if sampler is not None and chunk.trace is None:
                    chunk.trace = sampler.sample_chunk(
                        chunk.stream_id, chunk.index
                    )
                    # Attribute the batch span to the sampled chunk, so
                    # a traced chunk's journey starts at the feeder even
                    # when it is not the batch head.
                    if chunk.trace is not None and head.trace is None:
                        head = chunk
            items = batch if split is None else [i for c in batch for i in split(c)]
            with stage_span(
                telemetry, "feed", stream_id=head.stream_id,
                chunk_id=head.index, track=track,
            ) as sp:
                outq.put_many(items)
            per_chunk = sp.duration / len(batch)
            for chunk in batch:
                n = len(chunk.payload)
                _finish(stats, telemetry, "feed", chunk.stream_id,
                        n, n, per_chunk)
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
    knobs: Knobs,
    telemetry=None,
    stop: threading.Event | None = None,
) -> None:
    """{C}: compress chunk payloads into wire frames.

    A work item is a chunk or one :class:`~repro.live.blocks.Block` of
    one; the thread that compresses a chunk's last block packs the
    chunk's frame and forwards it.  Stats and counters book chunks,
    spans book each codec call.

    ``knobs.batch_frames > 1`` drains up to that many items per queue
    lock round-trip and forwards the finished frames with one
    :meth:`put_many`; each item is still compressed individually.

    The knob is hot-swappable (re-read before every drain, lock-free);
    ``stop`` makes the worker stoppable at a batch boundary — set
    between drains, it exits cleanly and its
    ``finally``-close balances the downstream producer count, which is
    how the controller scales this stage down without losing chunks.
    """
    _maybe_pin(cpus, "compress", telemetry)
    track = threading.current_thread().name
    try:
        while True:
            if stop is not None and stop.is_set():
                break
            bf = knobs.batch_frames
            try:
                if stop is not None:
                    items = inq.get_many(bf, timeout=STOP_POLL_SECONDS)
                else:
                    items = inq.get_many(bf)
            except QueueTimeout:
                continue
            except Closed:
                break
            frames = []
            for item in items:
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
                record_codec(telemetry, "compress", frame, codec)
                frames.append(frame)
            outq.put_many(frames)
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


def _pump(
    inq: ClosableQueue,
    deliver: Callable[[Sequence[Frame]], None],
    stats: StageStats,
    knobs: Knobs,
    *,
    telemetry,
    settle: Callable[[], None] | None = None,
) -> set[str]:
    """The send loop both senders share; returns the stream ids seen.

    Until ``inq`` closes: drain up to ``knobs.batch_frames`` frames in
    one lock round-trip (lingering ``knobs.batch_linger`` seconds to
    top the batch up; both re-read before every drain, so they are
    hot-swappable), hand the batch to ``deliver`` under one ``send``
    span and book each chunk.  ``settle`` runs after every batch,
    outside the span (the resilient sender collects ACKs there).
    """
    track = threading.current_thread().name
    stream_ids: set[str] = set()
    while True:
        try:
            batch = inq.get_many(knobs.batch_frames, linger=knobs.batch_linger)
        except Closed:
            return stream_ids
        # A traced frame is stamped just before transmit: the start of
        # its wire interval, send syscall included (repro.telemetry.assemble
        # documents the overlap).
        frames = [
            replace(f, sent_at=time.perf_counter()) if f.traced else f
            for f in batch
        ]
        # The batch span goes to the first traced frame, so a sampled
        # chunk's journey has no batch-identity holes.
        head = next((f for f in frames if f.traced), frames[0])
        with stage_span(
            telemetry, "send", stream_id=head.stream_id,
            chunk_id=head.index, track=track,
        ) as sp:
            deliver(frames)
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
    knobs: Knobs,
    cpus: list[int] | None = None,
    telemetry=None,
) -> None:
    """{S}: one TCP connection's sending thread.

    Each batch :func:`_pump` drains goes out with one vectored
    :meth:`~repro.live.transport.FramedSender.send_many`.  The wire
    bytes are identical at any ``knobs.batch_frames``; only the syscall
    and lock counts change.  The batch flushes on size, on the linger
    timeout, and on queue close (the final partial batch is sent before
    the EOS frames).
    """
    _maybe_pin(cpus, "send", telemetry)
    try:
        stream_ids = _pump(
            inq, transport.send_many, stats, knobs, telemetry=telemetry
        )
        for sid in stream_ids or {"-"}:
            transport.send(Frame.end_of_stream(sid))
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
    knobs: Knobs,
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
    hot path is one ``send`` plus a zero-timeout ``select`` per chunk.
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
            inq, _deliver_many, stats, knobs, telemetry=telemetry,
            settle=_settle,
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
    knobs: Knobs,
    telemetry=None,
    split: Callable[[Frame], list] | None = None,
) -> None:
    """{R}: one TCP connection's receiving thread.

    With ``knobs.batch_frames > 1``, after each blocking ``recv`` any
    whole frames already sitting in the receiver's userspace buffer
    join the same ``put_many`` handoff — the downstream mirror of the
    sender's vectored batch, with no extra waiting (buffered frames are
    free).  The knob is re-read before every batch.

    ``split`` (:func:`repro.live.blocks.split_frame`, when the sending
    side cuts chunks into blocks) hands the decompress stage one job per
    block, so all its threads decode one chunk.
    """
    _maybe_pin(cpus, "recv", telemetry)
    track = threading.current_thread().name
    try:
        done = False
        while not done:
            bf = knobs.batch_frames
            batch: list[Frame] = []
            with stage_span(telemetry, "recv", track=track) as sp:
                frame = transport.recv()
                if frame is None or frame.eos:
                    sp.discard = True
                    done = True
                else:
                    sp.stream_id = frame.stream_id
                    sp.chunk_id = frame.index
                    batch.append(frame)
                    while len(batch) < bf and transport.pending:
                        nxt = transport.recv()
                        if nxt is None or nxt.eos:
                            done = True
                            break
                        batch.append(nxt)
                    # The wire interval ends when the frame came off
                    # the socket — not at sp.start, which is when this
                    # thread began *waiting* for it.
                    arrived = time.perf_counter()
                    tagged = False
                    for f in batch:
                        if f.traced:
                            if not tagged:
                                sp.stream_id = f.stream_id
                                sp.chunk_id = f.index
                                tagged = True
                            _note_wire(telemetry, f, arrived=arrived)
            if not batch:
                break
            per_chunk = sp.duration / len(batch)
            for frame in batch:
                _finish(stats, telemetry, "recv", frame.stream_id,
                        len(frame.payload), len(frame.payload), per_chunk)
            jobs = batch if split is None else [j for f in batch for j in split(f)]
            outq.put_many(jobs)
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"receiver: {exc!r}")
    finally:
        outq.close()


def decompressor(
    codec: Codec,
    inq: ClosableQueue,
    stats: StageStats,
    sink: Callable[[str, int, bytes], None],
    cpus: list[int] | None = None,
    *,
    knobs: Knobs,
    telemetry=None,
    stop: threading.Event | None = None,
) -> None:
    """{D}: decompress received frames and deliver to the sink.

    A work item is a frame or one :class:`~repro.live.blocks.Block` of
    a blocked frame; the thread that decodes a chunk's last block joins
    the output and delivers the chunk.  A blocked frame that arrives
    whole (the event plane enqueues a frame all-or-nothing) has its
    blocks decoded here, in turn.

    ``knobs.batch_frames > 1`` drains up to that many items per queue
    lock round-trip; each is still decompressed individually (sink
    ordering is unchanged).  ``knobs`` and ``stop`` behave as in
    :func:`compressor` (there is no downstream queue, so stopping is
    just a clean exit between batches).
    """
    _maybe_pin(cpus, "decompress", telemetry)
    track = threading.current_thread().name
    try:
        while True:
            if stop is not None and stop.is_set():
                break
            bf = knobs.batch_frames
            try:
                if stop is not None:
                    items = inq.get_many(bf, timeout=STOP_POLL_SECONDS)
                else:
                    items = inq.get_many(bf)
            except QueueTimeout:
                continue
            except Closed:
                break
            for item in items:
                if type(item) is Block:
                    _decompress_block(
                        codec, item, stats, sink,
                        telemetry=telemetry, track=track,
                    )
                elif item.blocks:
                    for block in split_frame(item):
                        _decompress_block(
                            codec, block, stats, sink,
                            telemetry=telemetry, track=track,
                        )
                else:
                    _decompress_one(
                        codec, item, stats, sink,
                        telemetry=telemetry, track=track,
                    )
    except Exception as exc:  # noqa: BLE001
        stats.fail(f"decompressor: {exc!r}")


def _decoder(codec: Codec, frame: Frame) -> Codec:
    # Frames stamped with a codec wire id decode with *that* codec — how
    # adaptive senders switch per chunk without renegotiating; id 0
    # falls back to the configured codec.
    return decompressor_for(frame.codec_id) if frame.codec_id else codec


def _decompress_one(
    codec: Codec,
    frame: Frame,
    stats: StageStats,
    sink: Callable[[str, int, bytes], None],
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
    _deliver(codec, frame, data, sp.duration, stats, sink, telemetry)


def _decompress_block(
    codec: Codec,
    block: "Block[Frame]",
    stats: StageStats,
    sink: Callable[[str, int, bytes], None],
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
        _deliver(codec, frame, data, block.join.busy, stats, sink, telemetry)


def _deliver(
    codec: Codec,
    frame: Frame,
    data: bytes,
    busy: float,
    stats: StageStats,
    sink: Callable[[str, int, bytes], None],
    telemetry,
) -> None:
    """Check a decoded chunk against its frame, book it, hand it on."""
    if frame.compressed:
        record_codec(telemetry, "decompress", frame, codec)
    if frame.orig_len and len(data) != frame.orig_len:
        raise ValueError(
            f"{frame.stream_id}#{frame.index}: decompressed to "
            f"{len(data)} bytes, expected {frame.orig_len}"
        )
    _finish(stats, telemetry, "decompress", frame.stream_id,
            len(frame.payload), len(data), busy)
    sink(frame.stream_id, frame.index, data)
