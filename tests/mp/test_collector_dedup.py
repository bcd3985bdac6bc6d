"""The process front's collector: bounded replay dedup.

The collector used to remember every ``(stream, index)`` it had ever
seen in one set — O(total chunks) over a run, the same growth PR 9
fixed on the receive side.  It now claims keys through a
:class:`~repro.live.dedup.StreamDedup` (watermark + reorder window), so
these tests hold it to both halves of the contract: replayed records
are still dropped and counted, and an in-order run leaves nothing
parked above the watermark.
"""

import zlib

from repro.compress.codec import resolve_codec
from repro.live.assembly import Assembly
from repro.live.queues import Closed
from repro.live.runtime import LiveConfig
from repro.mp.pipeline import ProcessFront
from repro.mp.records import ChunkRecord, pack_record
from repro.telemetry import Telemetry


class ScriptedRing:
    """A comp ring that hands out pre-packed records one per ``get``, as
    the collector takes them, then closes.  The script groups them in
    batches only to show where a restart's replay starts."""

    def __init__(self, batches):
        self.records = [rec for batch in batches for rec in batch]

    def get(self):
        if not self.records:
            raise Closed()
        return self.records.pop(0)


class ScriptedSupervisor:
    """Just what ``ProcessFront._collect`` touches."""

    def __init__(self, rings):
        self.comp = rings
        self.acked = []

    def ack(self, domain, key):
        self.acked.append((domain, key))


def record(stream, index):
    payload = zlib.compress(bytes([index]) * 64)
    return pack_record(ChunkRecord(stream, index, payload, True, 64))


def make_front(tel, rings):
    # Nothing drains sendq while _collect runs here, so it must hold
    # the whole script.
    cfg = LiveConfig(
        codec="zlib", compress_threads=len(rings), execution_mode="process",
        queue_capacity=128,
    )
    asm = Assembly(
        cfg, resolve_codec("zlib"), tel, runner="ProcessPipeline"
    )
    front = ProcessFront(asm, iter(()))
    front.supervisor = ScriptedSupervisor(rings)
    return asm, front


def drain(queue):
    out = []
    while True:
        try:
            out.extend(queue.get_many(64))
        except Closed:
            return out


def test_replayed_records_are_dropped_and_counted():
    tel = Telemetry()
    # A restart replayed indices 1 and 2 after they were already
    # collected once — within a batch and across batches.
    ring = ScriptedRing(
        [
            [record("s", 0), record("s", 1), record("s", 1)],
            [record("s", 2)],
            [record("s", 2), record("s", 3), record("s", 1)],
        ]
    )
    asm, front = make_front(tel, [ring])
    front._collect(0)

    forwarded = [(c.stream_id, c.index) for c in drain(asm.sendq)]
    assert forwarded == [("s", 0), ("s", 1), ("s", 2), ("s", 3)]
    assert tel.counter_value("transport_frames_deduped_total") == 3
    # Every record is acked to the supervisor, duplicates included —
    # otherwise the replay ledger would hold them forever.
    assert len(front.supervisor.acked) == 7
    assert asm.stats["compress"].errors == []


def test_corrupted_record_is_refused_not_forwarded():
    """A flipped payload byte fails the frame's CRC-32 at the collector,
    before the sender could checksum the damaged bytes afresh."""
    tel = Telemetry()
    bad = bytearray(record("s", 3))
    bad[-1] ^= 0x01
    ring = ScriptedRing(
        [
            [record("s", 0), record("s", 1)],
            [record("s", 2), bytes(bad), record("s", 4)],
        ]
    )
    asm, front = make_front(tel, [ring])
    front._collect(0)

    forwarded = [(f.stream_id, f.index) for f in drain(asm.sendq)]
    assert forwarded == [("s", 0), ("s", 1), ("s", 2)]
    [error] = asm.stats["compress"].errors
    assert error.startswith("collector-0: FrameIntegrityError(")
    assert "checksum mismatch on s#3" in error


def test_in_order_run_leaves_no_reorder_backlog():
    """Round-robin dispatch interleaves a stream's indices across the
    domains' collectors; once all of them drained, the shared dedup
    must be back to a bare watermark per stream (O(streams) memory)."""
    tel = Telemetry()
    rings = [
        ScriptedRing([[record("a", i), record("b", i)] for i in range(0, 40, 2)]),
        ScriptedRing([[record("a", i), record("b", i)] for i in range(1, 40, 2)]),
    ]
    asm, front = make_front(tel, rings)
    # Domain 1 first: its odd indices all park above the watermark
    # until domain 0's even ones arrive and absorb them.
    front._collect(1)
    assert front.dedup.out_of_order("a") == 20
    front._collect(0)

    assert len(drain(asm.sendq)) == 80
    for stream in ("a", "b"):
        assert front.dedup.watermark(stream) == 39
        assert front.dedup.out_of_order(stream) == 0
    assert tel.counter_value("transport_frames_deduped_total") == 0
