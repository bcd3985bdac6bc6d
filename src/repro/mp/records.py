"""The ring record: a wire frame, optionally stamped.

From compress to decompress a chunk is one
:class:`~repro.live.transport.Frame` on every plane.  A ring slot holds
that frame's wire encoding (magic and CRC-32 included), optionally
followed by exactly 16 bytes: the compress worker's wall-clock stamp
``(t0, t1)``.  A frame is self-delimiting, so the slot length alone
says whether the stamp is there; any other remainder is refused, as is
anything :func:`~repro.live.transport.decode_frame` refuses.

A compress worker stamps every record it writes; the format still
allows a slot without one (the raw ring's records, perfbench's).  The
stamp is the worker's one report: the collector books the compress
stage from it and, with telemetry attached, the ``compress`` span on
the worker's ``mp-compress-N`` track, whose end is the worker's
heartbeat (``perf_counter`` is shared by the processes of one host and
is the telemetry clock).  A traced frame's own trailer (one f64, the
sender's clock at send) is not reused for it, so traced wire bytes do
not change.

:data:`ChunkRecord` is :class:`Frame` itself; it, :func:`pack_record`
and :func:`unpack_record` keep their names because perfbench times them
per layer.  Those ``mp.records.pack_ms`` / ``unpack_ms`` rows now
include a CRC-32 each (on ``mp_lz4``'s 256 KiB records, 0.05 → 0.12 ms
and 0.04 → 0.12 ms), so they are not comparable with earlier rows.
"""

from __future__ import annotations

import struct

from repro.live.transport import Frame, decode_frame, encode_frame
from repro.util.errors import FrameIntegrityError

ChunkRecord = Frame

#: The compress worker's stamp after a record's frame.
STAMP = struct.Struct("<dd")


def pack_record(frame: Frame, stamp: tuple[float, float] | None = None) -> bytes:
    """Encode ``frame`` (and ``stamp``, when given) for a ring slot."""
    wire = encode_frame(frame)
    return wire if stamp is None else wire + STAMP.pack(*stamp)


def unpack_stamped(raw: bytes) -> tuple[Frame, tuple[float, float] | None]:
    """Invert :func:`pack_record`; raises
    :class:`~repro.util.errors.FrameIntegrityError` on a malformed
    record."""
    frame, size = decode_frame(raw)
    rest = len(raw) - size
    if rest == 0:
        return frame, None
    if rest != STAMP.size:
        raise FrameIntegrityError(
            f"ring record {frame.stream_id}#{frame.index} has {rest} bytes "
            f"after its frame, not 0 or {STAMP.size}"
        )
    t0, t1 = STAMP.unpack_from(raw, size)
    return frame, (t0, t1)


def unpack_record(raw: bytes) -> Frame:
    """The frame of a ring record."""
    return unpack_stamped(raw)[0]
