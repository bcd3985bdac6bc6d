"""Bounded receiver-side dedup: contiguous watermark + reorder set.

The v2 resilience protocol is at-least-once transmission plus
receiver-side dedup on ``(stream, index)`` — exactly-once at the sink.
The original implementation kept every accepted key in one ``set``,
which grows O(total chunks) over a run: a real leak at thousands of
streams times long chunk sequences.

:class:`StreamDedup` keeps per-stream state instead: a *contiguous
watermark* ``w`` (every index ``<= w`` has been accepted — the same
shape as the sender's contiguous-ACK horizon) plus a small set of
out-of-order indices above it, absorbed into the watermark as gaps
fill.  Senders emit indices in order per stream, so the out-of-order
set only holds entries while a retransmit window is open; steady-state
memory is O(streams), worst case O(streams + reorder window).
"""

from __future__ import annotations


class StreamDedup:
    """Tracks which ``(stream, index)`` chunks were already accepted.

    Not thread-safe on its own — callers serialize access (the event
    plane and the process front's collectors each under their own
    lock).
    """

    __slots__ = ("_marks", "_ooo")

    def __init__(self) -> None:
        #: stream id -> highest contiguous index accepted (-1 = none).
        self._marks: dict[str, int] = {}
        #: stream id -> accepted indices above the watermark.
        self._ooo: dict[str, set[int]] = {}

    def claim(self, stream_id: str, index: int) -> bool:
        """Mark ``(stream, index)`` accepted; True when it was new."""
        mark = self._marks.get(stream_id, -1)
        ooo = self._ooo.get(stream_id)
        if index <= mark or (ooo is not None and index in ooo):
            return False
        if index == mark + 1:
            mark += 1
            if ooo:
                while mark + 1 in ooo:
                    mark += 1
                    ooo.remove(mark)
                if not ooo:
                    del self._ooo[stream_id]
            self._marks[stream_id] = mark
        else:
            if ooo is None:
                ooo = self._ooo.setdefault(stream_id, set())
            ooo.add(index)
        return True

    def watermark(self, stream_id: str) -> int:
        """Highest contiguous accepted index (-1 when none yet)."""
        return self._marks.get(stream_id, -1)

    def out_of_order(self, stream_id: str) -> int:
        """Accepted indices currently parked above the watermark."""
        ooo = self._ooo.get(stream_id)
        return len(ooo) if ooo is not None else 0

    def streams(self) -> int:
        return len(self._marks.keys() | self._ooo.keys())
