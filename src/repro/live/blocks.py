"""Blocks inside the codec stages: several codec calls, one frame.

In the paper each compress thread (C) and decompress thread (D) takes a
whole 11.0592 MB projection, so below saturation a chunk waits out one
thread's codec time while the rest of the stage idles.  Here a chunk
larger than :data:`BLOCK_BYTES` is cut into blocks *inside those two
stages only*, so every thread of the stage can work on it at once:

- the feeder hands the compress stage :func:`split_chunk`'s blocks —
  ``ceil(n / BLOCK_BYTES)`` page-aligned ``memoryview`` slices of the
  payload, nothing copied;
- whichever compress thread finishes a chunk's last block (the
  :class:`Join` tells it) packs the compressed blocks into one frame
  payload, a block table followed by the blocks
  (:func:`repro.live.transport.pack_blocks`);
- on the receive side :func:`split_frame` makes one decompress job per
  block, and whichever thread finishes the last one joins the output
  and delivers the chunk.

Between the two stages nothing changes: one frame per chunk, one CRC,
one dedup claim, one ACK, one ``(stream, index)`` in the ledger.  A
codec whose ``splits`` is False never gets a split step installed.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

from repro.data.chunking import Chunk
from repro.live.transport import Frame

#: Chunks larger than this are cut into blocks for the codec stages.
BLOCK_BYTES = 1 << 20
#: Blocks start on multiples of a page, which keeps every block a whole
#: number of samples for any filter item size (1, 2, 4 or 8 bytes).
_ALIGN = 4096

#: What a chunk's blocks belong to: the chunk (compress side) or the
#: frame that carries it (decompress side).
Owner = TypeVar("Owner", Chunk, Frame)


class Join(Generic[Owner]):
    """The per-chunk join: one chunk's codec outputs as threads finish
    them.  :meth:`done` files a block's output under the join's lock and
    says whether it was the last; only that thread reads :attr:`parts`
    and :attr:`busy` (the summed codec seconds, the stage's busy time
    for the chunk)."""

    __slots__ = ("owner", "parts", "busy", "_left", "_lock")

    def __init__(self, owner: Owner, count: int) -> None:
        self.owner = owner
        self.parts: list[bytes] = [b""] * count
        self.busy = 0.0
        self._left = count
        self._lock = threading.Lock()

    def done(self, slot: int, part: bytes, seconds: float) -> bool:
        with self._lock:
            self.parts[slot] = part
            self.busy += seconds
            self._left -= 1
            return self._left == 0


class Block(Generic[Owner]):
    """One codec call's worth of a chunk: ``data`` is its slice."""

    __slots__ = ("join", "slot", "data")

    def __init__(self, join: Join[Owner], slot: int, data: memoryview) -> None:
        self.join = join
        self.slot = slot
        self.data = data


def bounds(n: int) -> list[tuple[int, int]]:
    """Where ``n`` bytes are cut: ``ceil(n / BLOCK_BYTES)`` blocks of one
    page-aligned size, the last one shorter."""
    count = -(-n // BLOCK_BYTES)
    size = -(-n // count)
    size += -size % _ALIGN
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def split_chunk(chunk: Chunk) -> list[Chunk | Block[Chunk]]:
    """The compress stage's work for ``chunk``: its blocks, or the chunk
    itself when it is no larger than :data:`BLOCK_BYTES`."""
    payload = chunk.payload
    if payload is None or len(payload) <= BLOCK_BYTES:
        return [chunk]
    cuts = bounds(len(payload))
    join = Join(chunk, len(cuts))
    view = memoryview(payload)
    return [Block(join, i, view[lo:hi]) for i, (lo, hi) in enumerate(cuts)]


def split_frame(frame: Frame) -> list[Frame | Block[Frame]]:
    """The decompress stage's work for ``frame``: one job per block of a
    blocked frame, or the frame itself."""
    if not frame.blocks:
        return [frame]
    join = Join(frame, len(frame.blocks))
    return [Block(join, i, view) for i, view in enumerate(frame.block_views())]
