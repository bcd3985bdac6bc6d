"""Framed chunk transport over sockets — the zeroMQ stand-in.

Wire format v2.3 of one frame (all integers little-endian)::

    magic     u32   0x52435046 ("RCPF")
    stream    u16   stream id length, followed by that many bytes
    index     u32   chunk index within the stream
    flags     u16   bit 0: payload is compressed; bit 1: end-of-stream;
                    bit 2: acknowledgement (v2); bit 3: flow-traced
                    (v2.2 — an 8-byte timestamp trailer follows the
                    payload); bit 4: blocked (v2.3 — the payload is a
                    block table and the blocks it lists); bits 8-15:
                    codec wire id (v2.1; 0 = the codec the pipeline was
                    configured with, so static-codec senders emit
                    unchanged bytes)
    orig_len  u32   uncompressed payload length
    checksum  u32   CRC-32 (zlib) of the (possibly compressed) payload
    length    u32   payload length
    payload   bytes
    trailer   f64   sender wall clock at frame build — present only
                    when bit 3 is set; untraced frames are byte-
                    identical to v2.1

The payload of a blocked frame (bit 4) is one chunk compressed as
independent blocks (:mod:`repro.live.blocks`)::

    count     u32   number of blocks, at least 2
    sizes     u32   compressed size of each block, ``count`` of them
    blocks    bytes the blocks back to back, in chunk order

``length`` and the checksum cover table and blocks together, so a
blocked frame is still one frame per chunk to everything that handles
frames (ACK, replay, dedup, the fair-share budget).  The receiver
refuses a table whose count is below 2 or beyond :data:`MAX_BLOCKS`, or
whose sizes do not add up to exactly the bytes after it.  Frames
without bit 4 are byte-identical to v2.2.

The frame checksum is ``zlib.crc32`` — computed in C at memory speed —
rather than the pure-Python xxhash32 the LZ4 frame format mandates:
checksumming every payload twice per hop must not be the pipeline
bottleneck, and the transport owns its own format.  (LZ4 frames keep
xxHash32; that is part of *their* spec.)

End-of-stream frames carry an empty payload.  v2 adds the ACK frame
(bit 2): an empty-payload frame the *receiver* sends back on the same
socket, echoing the (stream, index, eos) it just accepted — the
resilient sender retains every frame until its ACK arrives and replays
the unacknowledged tail after a reconnect (``docs/resilience.md``).
v1 peers never set bit 2, so data frames parse identically.

Frames are self-delimiting, so a batched send of N frames puts exactly
the same bytes on the wire as N sequential sends — batching changes
syscall count, never the format.

The hot path is zero-copy on the send side: the small header blob and
the (possibly multi-megabyte) payload stay separate buffers handed to
``socket.sendmsg`` as an iovec, so the payload is never copied into a
joined wire string (:meth:`FramedSender.send_many`).  The
join-and-``sendall`` path survives for fault injection, which must
mangle contiguous wire bytes (and for sockets without ``sendmsg``);
``tests/live/test_transport.py`` pins both paths to the same wire
bytes.  The receive side parses out of a reusable buffer with
``memoryview``/``unpack_from`` — header fields are decoded in place and
large payload tails are read straight into their destination
``bytearray`` via ``recv_into`` (no per-read chunk list, no join).

The receiver verifies the checksum before handing the frame up; a
mismatch or malformed header raises
:class:`~repro.util.errors.FrameIntegrityError` (fail loudly — a
corrupted scientific chunk must never be silently delivered), while
connection failures raise plain
:class:`~repro.util.errors.TransportError`.  :func:`decode_frame` runs
the same checks over bytes that arrived whole: a frame is the one
record of a compressed chunk on every plane, and the process front's
rings carry its wire encoding (:mod:`repro.mp.records`).

A :class:`~repro.faults.FaultInjector` can be attached to a
:class:`FramedSender`; it is consulted before every frame goes out and
may corrupt the wire bytes, truncate the frame, drop the connection, or
delay the send (chaos testing).
"""

from __future__ import annotations

import socket
import struct
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.util.errors import FrameIntegrityError, TransportError

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import LiveFaultSpec
    from repro.telemetry.facade import Telemetry

MAGIC = 0x52435046
_HEADER = struct.Struct("<IH")  # magic, stream-id length
_BODY = struct.Struct("<IHIII")  # index, flags, orig_len, checksum, length

FLAG_COMPRESSED = 0x1
FLAG_EOS = 0x2
FLAG_ACK = 0x4
#: Bit 3 (v2.2): the frame belongs to a sampled flow trace and carries
#: a fixed-size timestamp trailer *after* the payload.  Untraced frames
#: never set the bit and never carry the trailer, so they stay
#: byte-identical to v2.1 — tracing costs zero wire bytes when off.
FLAG_TRACED = 0x8
#: Bit 4 (v2.3): the payload is a block table followed by the blocks.
FLAG_BLOCKS = 0x10
#: Bits 8-15 of the flags word carry the codec wire id (0 = configured
#: codec) so adaptive senders can switch codec per frame and the
#: receiver still picks the right decompressor.
CODEC_SHIFT = 8

#: Trailer of a traced frame: the sender's wall clock when the frame
#: was built.  The receiver pairs it with its own arrival stamp to
#: derive wire time and the sender/receiver clock offset
#: (:class:`repro.telemetry.ClockAlign`).  Excluded from the payload
#: checksum — it is observability metadata, not scientific data.
TRACE_TRAILER = struct.Struct("<d")

#: One u32 of a blocked frame's table: the block count, then each size.
_TABLE_WORD = struct.Struct("<I")

#: Refuse absurd frames before allocating for them.
MAX_FRAME_PAYLOAD = 256 * 1024 * 1024
MAX_STREAM_ID = 4096
MAX_BLOCKS = 4096

#: Buffers per ``sendmsg`` call.  POSIX guarantees IOV_MAX >= 16; Linux
#: allows 1024, but past a few dozen the syscall amortization is flat.
_IOV_GROUP = 64

#: Read-ahead granularity of the receiver's reusable buffer.
_READ_SIZE = 1 << 16


@dataclass(frozen=True)
class Frame:
    """One transported chunk (or end-of-stream / ACK marker)."""

    stream_id: str
    index: int
    payload: bytes
    compressed: bool = False
    orig_len: int = 0
    eos: bool = False
    ack: bool = False
    #: Wire id of the codec that produced the payload; 0 means "the
    #: codec the pipeline was configured with" (the legacy encoding).
    codec_id: int = 0
    #: Flow-trace membership (v2.2).  A traced frame carries
    #: ``sent_at`` — the sender's wall clock when the frame was built —
    #: in a trailer after the payload.
    traced: bool = False
    sent_at: float = 0.0
    #: Compressed size of each block of a blocked frame (v2.3; empty
    #: for a frame that carries its chunk as one codec output).  The
    #: payload then starts with the table :func:`pack_blocks` wrote.
    blocks: tuple[int, ...] = ()

    @classmethod
    def end_of_stream(cls, stream_id: str) -> "Frame":
        return cls(stream_id=stream_id, index=0, payload=b"", eos=True)

    @classmethod
    def ack_for(cls, frame: "Frame") -> "Frame":
        """The acknowledgement the receiver returns for ``frame``."""
        return cls(
            stream_id=frame.stream_id,
            index=frame.index,
            payload=b"",
            eos=frame.eos,
            ack=True,
        )

    @property
    def key(self) -> tuple[str, int, bool]:
        """Identity used for ACK matching and receiver-side dedup."""
        return (self.stream_id, self.index, self.eos)

    def block_views(self) -> list[memoryview]:
        """The blocks of a blocked frame, as zero-copy views of the
        payload past its table."""
        view = memoryview(self.payload)
        pos = _TABLE_WORD.size * (len(self.blocks) + 1)
        views: list[memoryview] = []
        for size in self.blocks:
            views.append(view[pos : pos + size])
            pos += size
        return views


def pack_blocks(parts: Sequence[bytes]) -> tuple[bytes, tuple[int, ...]]:
    """A blocked frame's payload — the table, then ``parts`` — and the
    block sizes to put in :attr:`Frame.blocks`."""
    sizes = tuple(len(part) for part in parts)
    table = struct.pack(f"<{len(sizes) + 1}I", len(sizes), *sizes)
    return b"".join((table, *parts)), sizes


def _block_sizes(payload: bytes, where: str) -> tuple[int, ...]:
    """The sizes a blocked frame's table lists, checked against the
    payload that carries it."""
    have = len(payload)
    if have < _TABLE_WORD.size:
        raise FrameIntegrityError(f"{where}: block table truncated")
    (count,) = _TABLE_WORD.unpack_from(payload)
    table = _TABLE_WORD.size * (count + 1)
    if not 2 <= count <= MAX_BLOCKS or table > have:
        raise FrameIntegrityError(
            f"{where}: block table lists {count} blocks in {have} bytes"
        )
    sizes: tuple[int, ...] = struct.unpack_from(
        f"<{count}I", payload, _TABLE_WORD.size
    )
    if sum(sizes) != have - table:
        raise FrameIntegrityError(
            f"{where}: block sizes add up to {sum(sizes)}, "
            f"not the {have - table} bytes after the table"
        )
    return sizes


def encode_frame_header(frame: Frame) -> bytes:
    """The complete wire header (magic + stream id + body) for ``frame``.

    The payload is deliberately *not* included: the sender transmits
    ``(header, payload)`` as separate iovec entries so large payloads
    are never copied into a joined wire string.
    """
    sid = frame.stream_id.encode()
    if len(sid) > MAX_STREAM_ID:
        raise TransportError(f"stream id too long ({len(sid)} bytes)")
    if len(frame.payload) > MAX_FRAME_PAYLOAD:
        raise TransportError(
            f"frame payload {len(frame.payload)} exceeds limit"
        )
    if not 0 <= frame.codec_id <= 255:
        raise TransportError(f"codec id {frame.codec_id} outside [0, 255]")
    flags = (
        (FLAG_COMPRESSED if frame.compressed else 0)
        | (FLAG_EOS if frame.eos else 0)
        | (FLAG_ACK if frame.ack else 0)
        | (FLAG_TRACED if frame.traced else 0)
        | (FLAG_BLOCKS if frame.blocks else 0)
        | (frame.codec_id << CODEC_SHIFT)
    )
    return (
        _HEADER.pack(MAGIC, len(sid))
        + sid
        + _BODY.pack(
            frame.index,
            flags,
            frame.orig_len,
            zlib.crc32(frame.payload),
            len(frame.payload),
        )
    )


def encode_frame_trailer(frame: Frame) -> bytes:
    """The post-payload trailer: empty unless the frame is traced."""
    if not frame.traced:
        return b""
    return TRACE_TRAILER.pack(frame.sent_at)


def encode_frame(frame: Frame) -> bytes:
    """The whole wire encoding of ``frame`` as one buffer: for a fault
    injector that mangles it, a socket without ``sendmsg``, a ring slot."""
    return b"".join(
        (encode_frame_header(frame), frame.payload, encode_frame_trailer(frame))
    )


class _Head(NamedTuple):
    """A decoded frame header; ``size`` is the whole frame on the wire."""

    size: int
    sid_len: int
    index: int
    flags: int
    orig_len: int
    checksum: int
    length: int


def _head_at(buf: bytes | bytearray, pos: int) -> _Head | None:
    """Decode the header at ``buf[pos:]``; None while it is incomplete.
    The one place a malformed header (bad magic, oversized stream id or
    payload) is refused."""
    have = len(buf) - pos
    if have < _HEADER.size:
        return None
    magic, sid_len = _HEADER.unpack_from(buf, pos)
    if magic != MAGIC:
        raise FrameIntegrityError(f"bad frame magic 0x{magic:08X}")
    if sid_len > MAX_STREAM_ID:
        raise FrameIntegrityError(f"stream id length {sid_len} exceeds limit")
    if have < _HEADER.size + sid_len + _BODY.size:
        return None
    index, flags, orig_len, checksum, length = _BODY.unpack_from(
        buf, pos + _HEADER.size + sid_len
    )
    if length > MAX_FRAME_PAYLOAD:
        raise FrameIntegrityError(f"frame payload {length} exceeds limit")
    tail = TRACE_TRAILER.size if flags & FLAG_TRACED else 0
    size = _HEADER.size + sid_len + _BODY.size + length + tail
    return _Head(size, sid_len, index, flags, orig_len, checksum, length)


def _checked(head: _Head, sid: bytes, payload: bytes, sent_at: float) -> Frame:
    """The frame ``head`` opens, built from its stream id, payload and
    trailer stamp.  The stream id's encoding, the checksum and a blocked
    frame's table are checked here, the one place a malformed payload is
    refused."""
    try:
        stream_id = sid.decode()
    except UnicodeDecodeError:
        raise FrameIntegrityError(f"stream id {sid!r} is not UTF-8") from None
    if zlib.crc32(payload) != head.checksum:
        raise FrameIntegrityError(
            f"checksum mismatch on {stream_id}#{head.index} ({head.length} bytes)"
        )
    flags = head.flags
    return Frame(
        stream_id=stream_id,
        index=head.index,
        payload=payload,
        compressed=bool(flags & FLAG_COMPRESSED),
        orig_len=head.orig_len,
        eos=bool(flags & FLAG_EOS),
        ack=bool(flags & FLAG_ACK),
        codec_id=flags >> CODEC_SHIFT,
        traced=bool(flags & FLAG_TRACED),
        sent_at=sent_at,
        blocks=(
            _block_sizes(payload, f"{stream_id}#{head.index}")
            if flags & FLAG_BLOCKS
            else ()
        ),
    )


def decode_frame(data: bytes) -> tuple[Frame, int]:
    """The frame at the front of ``data``, and its size on the wire.

    :meth:`FramedReceiver.next_frame` for bytes that arrived whole (a
    ring slot), with the same checks and one payload copy.  A frame
    that ``data`` does not hold entirely is refused; bytes past it are
    the caller's.
    """
    head = _head_at(data, 0)
    if head is None or head.size > len(data):
        raise FrameIntegrityError(f"frame truncated at {len(data)} bytes")
    start = _HEADER.size + head.sid_len + _BODY.size
    end = start + head.length
    traced = head.flags & FLAG_TRACED
    sent_at = TRACE_TRAILER.unpack_from(data, end)[0] if traced else 0.0
    sid = data[_HEADER.size : _HEADER.size + head.sid_len]
    return _checked(head, sid, data[start:end], sent_at), head.size


class FramedSender:
    """Serializes frames onto a connected socket.

    With a :class:`~repro.telemetry.Telemetry` attached, every frame
    bumps ``transport_frames_total{direction="tx"}`` and
    ``transport_bytes_total{direction="tx"}`` (header + payload — the
    actual wire footprint), and every :meth:`send_many` batch feeds the
    ``pipeline_batch_size{site="wire.tx"}`` histogram.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        telemetry: Telemetry | None = None,
        injector: FaultInjector | None = None,
        connection: int = 0,
    ) -> None:
        self.sock = sock
        self.telemetry = telemetry
        #: Optional :class:`~repro.faults.FaultInjector` (chaos testing).
        self.injector = injector
        #: Connection index reported to the injector.
        self.connection = connection
        #: ``sendmsg`` vectored I/O (header + payload as separate
        #: buffers) wherever the socket offers it.
        self.vectored = hasattr(sock, "sendmsg")

    def send(self, frame: Frame) -> None:
        self.send_many((frame,))

    def send_many(self, frames: Sequence[Frame]) -> None:
        """Transmit a batch of frames with as few syscalls as possible.

        The wire bytes are identical to sending each frame on its own
        (frames are self-delimiting); only the syscall count changes.
        With a fault injector attached, frames go one at a time through
        the contiguous-copy path so the injector can mangle bytes.
        """
        if not frames:
            return
        if self.injector is not None or not self.vectored:
            for frame in frames:
                self._send_copy(frame)
        else:
            buffers: list[bytes] = []
            sizes: list[int] = []
            for frame in frames:
                parts = (
                    encode_frame_header(frame),
                    frame.payload,
                    encode_frame_trailer(frame),
                )
                buffers += parts
                sizes.append(sum(map(len, parts)))
            self._sendv(buffers)
            if self.telemetry is not None:
                for size in sizes:
                    self.telemetry.record_frame("tx", size)
        if self.telemetry is not None and len(frames) > 1:
            self.telemetry.record_batch("wire.tx", len(frames))

    def _sendv(self, buffers: list[bytes]) -> None:
        """Vectored transmit with partial-send recovery."""
        pending = [memoryview(b) for b in buffers if b]
        try:
            while pending:
                sent = self.sock.sendmsg(pending[:_IOV_GROUP])
                while sent:
                    head = pending[0]
                    if sent >= len(head):
                        sent -= len(head)
                        pending.pop(0)
                    else:
                        pending[0] = head[sent:]
                        sent = 0
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def _send_copy(self, frame: Frame) -> None:
        """Join header + payload and ``sendall`` the copy: the path an
        injector needs to see (and mangle) the contiguous wire bytes,
        and the only one a socket without ``sendmsg`` offers."""
        wire = encode_frame(frame)
        if self.injector is not None:
            spec = self.injector.on_send(frame, self.connection)
            if spec is not None:
                wire = self._sabotage(spec, wire)
        try:
            self.sock.sendall(wire)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        if self.telemetry is not None:
            self.telemetry.record_frame("tx", len(wire))

    def _sabotage(self, spec: LiveFaultSpec, wire: bytes) -> bytes:
        """Apply one injected fault; returns the (possibly mangled) wire
        bytes, or raises :class:`TransportError` for connection faults."""
        if spec.kind == "delay":
            time.sleep(spec.delay)
            return wire
        if spec.kind == "corrupt":
            mangled = bytearray(wire)
            mangled[-1] ^= 0xFF  # payload tail, or checksum when empty
            return bytes(mangled)
        if spec.kind == "truncate":
            try:
                self.sock.sendall(wire[: max(1, len(wire) // 2)])
            except OSError:
                pass
            self._abort()
            raise TransportError("injected fault: frame truncated mid-send")
        if spec.kind == "drop":
            self._abort()
            raise TransportError("injected fault: connection dropped")
        raise TransportError(f"unknown injected fault {spec.kind!r}")

    def _abort(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass


class FramedReceiver:
    """Parses frames off a connected socket.

    Maintains a reusable receive buffer: header fields are decoded in
    place with ``unpack_from`` (no per-field allocations) and payload
    bytes beyond what is already buffered are read directly into their
    destination buffer with ``recv_into``.  Because the buffer may hold
    read-ahead bytes, callers multiplexing on the raw socket (e.g. the
    resilient sender's ACK collection) must consult :attr:`pending`
    before trusting ``select`` — a whole frame may already be buffered
    in userspace.

    Mirrors :class:`FramedSender`'s counters on the ``rx`` direction.
    """

    def __init__(
        self, sock: socket.socket, *, telemetry: Telemetry | None = None
    ) -> None:
        self.sock = sock
        self.telemetry = telemetry
        self._buf = bytearray()
        self._pos = 0
        self._scratch = bytearray(_READ_SIZE)

    @property
    def pending(self) -> bool:
        """True when read-ahead bytes are buffered in userspace."""
        return len(self._buf) > self._pos

    def feed(self, data: bytes | bytearray | memoryview) -> None:
        """Append bytes obtained elsewhere (event-loop / non-blocking use).

        The event-loop receiver plane owns the ``recv`` syscalls (its
        selector decides *when* to read); the bytes it gets are fed here
        and parsed with :meth:`next_frame`.  Mixing :meth:`feed` with
        the blocking :meth:`recv` is safe — both consume the same
        buffer.
        """
        if self._pos:
            # Compact consumed bytes before growing the buffer.
            del self._buf[: self._pos]
            self._pos = 0
        self._buf += data

    def _take(self, head: _Head) -> Frame:
        """Consume the frame ``head`` opens and build it (:func:`_checked`).

        Payload and trailer bytes not yet buffered are read from the
        socket; :meth:`next_frame` only calls this once all of them are.
        """
        self._pos += _HEADER.size
        sid = bytes(self._buf[self._pos : self._pos + head.sid_len])
        self._pos += head.sid_len + _BODY.size
        payload = self._read_payload(head.length) if head.length else b""
        sent_at = 0.0
        if head.flags & FLAG_TRACED:
            self._fill(TRACE_TRAILER.size)
            (sent_at,) = TRACE_TRAILER.unpack_from(self._buf, self._pos)
            self._pos += TRACE_TRAILER.size
        if self._pos == len(self._buf):
            del self._buf[:]
            self._pos = 0
        frame = _checked(head, sid, payload, sent_at)
        if self.telemetry is not None:
            self.telemetry.record_frame("rx", head.size)
        return frame

    def next_frame(self) -> Frame | None:
        """Parse one frame from buffered bytes, without touching the socket.

        Returns None when the buffer holds only a partial frame — the
        bytes stay put and parsing resumes exactly where it left off on
        the next :meth:`feed` (partial-frame resume).  Raises
        :class:`FrameIntegrityError` on a bad magic / oversized header
        or a checksum mismatch, same as :meth:`recv`.
        """
        head = _head_at(self._buf, self._pos)
        if head is None or len(self._buf) - self._pos < head.size:
            return None
        return self._take(head)

    def _fill(self, need: int, *, eof_ok: bool = False) -> bool:
        """Ensure ``need`` unconsumed bytes are buffered.

        Returns False on a clean EOF at a frame boundary when
        ``eof_ok``; raises :class:`TransportError` on mid-frame EOF.
        """
        while len(self._buf) - self._pos < need:
            try:
                n = self.sock.recv_into(self._scratch)
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if n == 0:
                have = len(self._buf) - self._pos
                if eof_ok and have == 0:
                    return False
                raise TransportError(
                    f"connection closed mid-frame "
                    f"({have} of at least {need} bytes buffered)"
                )
            if self._pos:
                # Compact consumed bytes before growing the buffer.
                del self._buf[: self._pos]
                self._pos = 0
            self._buf += memoryview(self._scratch)[:n]
        return True

    def recv(self) -> Frame | None:
        """Next frame, or None on clean connection shutdown."""
        while (head := _head_at(self._buf, self._pos)) is None:
            # Nothing of a frame buffered yet is the one clean place
            # for the peer to have closed.
            buffered = len(self._buf) - self._pos
            if not self._fill(buffered + 1, eof_ok=True):
                return None
        return self._take(head)

    def _read_payload(self, length: int) -> bytes:
        """Assemble the payload: buffered bytes first, then read the
        remainder straight into the destination (no chunk list/join)."""
        buffered = len(self._buf) - self._pos
        if buffered >= length:
            with memoryview(self._buf) as mv:
                payload = bytes(mv[self._pos : self._pos + length])
            self._pos += length
            return payload
        dest = bytearray(length)
        with memoryview(dest) as mv:
            if buffered:
                mv[:buffered] = memoryview(self._buf)[
                    self._pos : self._pos + buffered
                ]
                self._pos += buffered
            filled = buffered
            while filled < length:
                try:
                    n = self.sock.recv_into(mv[filled:])
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}") from exc
                if n == 0:
                    raise TransportError(
                        f"connection closed mid-frame "
                        f"({length - filled} of {length} bytes missing)"
                    )
                filled += n
        return bytes(dest)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def socket_pipe(
    *, telemetry: Telemetry | None = None
) -> tuple[FramedSender, FramedReceiver]:
    """An in-process transport (socketpair) for local pipelines/tests."""
    a, b = socket.socketpair()
    return (
        FramedSender(a, telemetry=telemetry),
        FramedReceiver(b, telemetry=telemetry),
    )
