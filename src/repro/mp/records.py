"""The byte record the rings carry: one chunk, self-describing.

A :class:`ChunkRecord` is the shared-memory sibling of the transport's
:class:`~repro.live.transport.Frame` — same identity fields, but no
checksum (the bytes never leave the host; the wire hop downstream adds
CRC32 as always) and no magic (the ring's slot length already delimits
records).  Layout, little-endian::

    index     u32   chunk index within the stream
    flags     u16   bit 0: payload is compressed; bit 3: flow-traced;
                    bit 4: timed (a 16-byte stage-timestamp trailer
                    follows the payload); bits 8-15: codec wire id
                    (0 = the pipeline's configured codec)
    sid_len   u16   stream id length
    orig_len  u32   uncompressed payload length
    <stream id bytes>
    <payload bytes>
    <t0, t1   2×f64 — only when bit 4 is set>

This is not the transport's flag layout.  Bit 3 and bits 8-15 are the
only ones that forward 1:1 onto the wire frame; bit 0 happens to match
``FLAG_COMPRESSED`` but the frame sets its own, and bit 4 collides: on
the wire it is ``FLAG_BLOCKS``.

The trailer is how per-chunk flow tracing crosses the process
boundary (:mod:`repro.telemetry.context`): the parent marks a sampled
record with bit 3, the compress worker echoes the bit and stamps its
wall-clock work interval ``(t0, t1)`` into the outgoing trailer (bit
4), and the collector synthesizes the ``mp-compress-N`` span from it.  A pipeline
with telemetry attached asks workers to stamp *every* record (timed
without traced) so process mode emits the same per-chunk compress
spans thread mode does.  Untraced, untimed records are byte-identical
to the previous layout.

Packing is one ``struct`` + two slices; the ring then copies the
record straight into its slot, so a chunk crosses the process boundary
with exactly one memcpy in and one out — no pickle, no refcounting,
no allocator churn proportional to object graphs.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.util.errors import ValidationError

_RECORD = struct.Struct("<IHHI")

_FLAG_COMPRESSED = 0x1
#: Bit 3: the chunk is a sampled member of a flow trace (matches the
#: transport's ``FLAG_TRACED`` bit position so intent forwards 1:1).
_FLAG_TRACED = 0x8
#: Bit 4: the record ends with a (t0, t1) stage-timestamp trailer.
_FLAG_TIMED = 0x10
#: Bits 8-15 of the flags word carry the codec wire id (same layout as
#: the transport frame header, so the values forward unchanged).
#: Bit 4 is *not* shared: the transport's bit 4 is ``FLAG_BLOCKS``.
_CODEC_SHIFT = 8

#: Stage-work trailer: wall-clock start/end of the compress call.
_TIME_TRAILER = struct.Struct("<dd")

#: Matches the transport's stream-id bound so any record that fits a
#: ring also frames onto the wire.
MAX_STREAM_ID = 4096


class ChunkRecord(NamedTuple):
    """One chunk as it crosses a :class:`~repro.mp.ring.SharedRing`."""

    stream_id: str
    index: int
    payload: bytes
    compressed: bool
    orig_len: int
    #: Wire id of the codec that produced the payload (0 = the
    #: pipeline's configured codec).
    codec_id: int = 0
    #: Flow-trace membership — forwarded unchanged through the worker.
    traced: bool = False
    #: Wall-clock start/end of the stage work that produced this
    #: record; ``None`` when the producer did not stamp (the record
    #: then carries no trailer).
    stage_times: "tuple[float, float] | None" = None

    @property
    def key(self) -> tuple[str, int]:
        """Identity used for replay bookkeeping and collector dedup."""
        return (self.stream_id, self.index)


def pack_record(record: ChunkRecord) -> bytes:
    """Encode ``record`` for a ring slot."""
    sid = record.stream_id.encode()
    if len(sid) > MAX_STREAM_ID:
        raise ValidationError(f"stream id too long ({len(sid)} bytes)")
    if not 0 <= record.codec_id <= 255:
        raise ValidationError(
            f"codec id {record.codec_id} outside [0, 255]"
        )
    flags = (
        (_FLAG_COMPRESSED if record.compressed else 0)
        | (_FLAG_TRACED if record.traced else 0)
        | (record.codec_id << _CODEC_SHIFT)
    )
    tail = b""
    if record.stage_times is not None:
        flags |= _FLAG_TIMED
        tail = _TIME_TRAILER.pack(*record.stage_times)
    return (
        _RECORD.pack(record.index, flags, len(sid), record.orig_len)
        + sid
        + record.payload
        + tail
    )


def unpack_record(data: bytes) -> ChunkRecord:
    """Invert :func:`pack_record`; raises on a malformed record."""
    if len(data) < _RECORD.size:
        raise ValidationError(
            f"ring record truncated ({len(data)} < {_RECORD.size} bytes)"
        )
    index, flags, sid_len, orig_len = _RECORD.unpack_from(data, 0)
    if len(data) < _RECORD.size + sid_len:
        raise ValidationError("ring record truncated inside the stream id")
    sid = data[_RECORD.size : _RECORD.size + sid_len].decode()
    end = len(data)
    stage_times: tuple[float, float] | None = None
    if flags & _FLAG_TIMED:
        if end < _RECORD.size + sid_len + _TIME_TRAILER.size:
            raise ValidationError(
                "ring record truncated inside the time trailer"
            )
        end -= _TIME_TRAILER.size
        t0, t1 = _TIME_TRAILER.unpack_from(data, end)
        stage_times = (t0, t1)
    payload = data[_RECORD.size + sid_len : end]
    return ChunkRecord(
        stream_id=sid,
        index=index,
        payload=payload,
        compressed=bool(flags & _FLAG_COMPRESSED),
        orig_len=orig_len,
        codec_id=(flags >> _CODEC_SHIFT) & 0xFF,
        traced=bool(flags & _FLAG_TRACED),
        stage_times=stage_times,
    )


def record_overhead(stream_id: str) -> int:
    """Bytes a record adds on top of its payload (slot sizing helper).

    Includes the optional time trailer — a slot sized with this bound
    fits the record whether or not the producer stamps timestamps.
    """
    return _RECORD.size + len(stream_id.encode()) + _TIME_TRAILER.size
