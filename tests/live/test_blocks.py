"""Blocks inside the codec stages (repro.live.blocks).

A chunk larger than BLOCK_BYTES is compressed and decompressed by every
thread of the stage at once, yet crosses the link as one frame: one
CRC, one ledger entry, one count in every chunk counter.
"""

import hashlib
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.data.spheres import PAPER_DETECTOR_SHAPE, SpheresDataset
from repro.faults.policy import TimeoutPolicy
from repro.live.assembly import STAGES
from repro.live.blocks import (
    BLOCK_BYTES,
    Join,
    bounds,
    split_chunk,
    split_frame,
)
from repro.live.remote import ReceiverServer, SenderClient
from repro.live.runtime import LiveConfig, LivePipeline
from repro.live.transport import (
    _BODY,
    _HEADER,
    FLAG_BLOCKS,
    FLAG_EOS,
    Frame,
    FramedSender,
    encode_frame_header,
    encode_frame_trailer,
)
from repro.telemetry import Telemetry
from repro.telemetry.assemble import assemble

PAPER_STAGE_ORDER = ("feed", "compress", "send", "wire", "recv", "decompress")


@pytest.fixture(scope="module")
def projection():
    """One paper-size (2304 x 2400 uint16, 11.0592 MB) spheres chunk."""
    return SpheresDataset(detector_shape=PAPER_DETECTOR_SHAPE, seed=7).chunk_payload(0)


def _log_wire(mp):
    """Record the wire bytes of every frame any FramedSender sends."""
    log = []
    send_many = FramedSender.send_many

    def logged(self, frames):
        log.extend(
            encode_frame_header(f) + f.payload + encode_frame_trailer(f)
            for f in frames
        )
        send_many(self, frames)

    mp.setattr(FramedSender, "send_many", logged)
    return log


def data_flags(log):
    """The flags word of every data (non-EOS) frame in ``log``."""
    flags = []
    for wire in log:
        _magic, sid_len = _HEADER.unpack_from(wire)
        _index, word, *_ = _BODY.unpack_from(wire, _HEADER.size + sid_len)
        if not word & FLAG_EOS:
            flags.append(word)
    return flags


class Sink:
    def __init__(self):
        self.got = {}
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, stream_id, index, data):
        with self._lock:
            self.calls += 1
            self.got[(stream_id, index)] = data


def run_live(chunks, codec="zlib", **cfg):
    sink, tel = Sink(), Telemetry()
    with pytest.MonkeyPatch.context() as mp:
        log = _log_wire(mp)
        report = LivePipeline(LiveConfig(codec=codec, **cfg)).run(
            chunks, sink, telemetry=tel
        )
    assert report.ok, report.errors
    return report, sink, tel, log


@pytest.fixture(scope="module")
def traced_run(projection):
    """The projection through a default zlib pipeline, every chunk traced."""
    return run_live(
        [Chunk("s", 0, len(projection), payload=projection)], trace_sample=1
    )


class TestCut:
    def test_paper_projection_cuts_into_eleven_aligned_blocks(self):
        cuts = bounds(11_059_200)
        assert len(cuts) == 11
        assert cuts[0][0] == 0 and cuts[-1][1] == 11_059_200
        assert all(hi == lo for (_, hi), (lo, _) in zip(cuts, cuts[1:]))
        assert all(lo % 4096 == 0 for lo, _ in cuts)

    def test_at_most_block_bytes_is_not_cut(self):
        chunk = Chunk("s", 0, BLOCK_BYTES, payload=bytes(BLOCK_BYTES))
        assert split_chunk(chunk) == [chunk]

    def test_blocks_are_views_not_copies(self):
        payload = bytes(BLOCK_BYTES + 1)
        blocks = split_chunk(Chunk("s", 0, len(payload), payload=payload))
        assert len(blocks) == 2
        assert all(b.data.obj is payload for b in blocks)

    def test_unblocked_frame_is_one_job(self):
        frame = Frame("s", 0, b"x", compressed=True, orig_len=1)
        assert split_frame(frame) == [frame]


class TestThreadPipeline:
    def test_projection_arrives_byte_identical(self, traced_run, projection):
        _report, sink, _tel, _log = traced_run
        assert sink.calls == 1
        assert sink.got == {("s", 0): projection}

    def test_one_data_frame_with_the_blocks_bit(self, traced_run):
        flags = data_flags(traced_run[3])
        assert len(flags) == 1
        assert flags[0] & FLAG_BLOCKS

    def test_every_thread_of_both_codec_stages_works_the_chunk(self, traced_run):
        spans = traced_run[2].spans.snapshot()
        tracks = {
            stage: {s.track for s in spans if s.stage == stage and s.chunk_id == 0}
            for stage in ("compress", "decompress")
        }
        assert tracks == {
            "compress": {"compress-0", "compress-1"},
            "decompress": {"decompress-0", "decompress-1"},
        }

    def test_assembled_journey_is_one_chunk_in_pipeline_order(self, traced_run):
        traces = assemble(traced_run[2].spans.snapshot())
        assert len(traces) == 1
        assert traces[0].stage_order() == PAPER_STAGE_ORDER

    def test_counters_count_chunks_not_blocks(self, traced_run):
        report, _sink, tel, _log = traced_run
        assert {n: s.chunks for n, s in report.stage_stats.items()} == dict.fromkeys(
            STAGES, 1
        )
        for stage in STAGES:
            assert tel.counter_value(
                "pipeline_chunks_total", stage=stage, stream="s"
            ) == 1

    @pytest.mark.parametrize(
        "codec, size",
        [
            ("zlib", BLOCK_BYTES),
            ("null", 11_059_200),
        ],
    )
    def test_frames_without_the_bit(self, projection, codec, size):
        payload = projection[:size]
        _report, sink, _tel, log = run_live(
            [Chunk("s", 0, size, payload=payload)], codec=codec
        )
        assert sink.got == {("s", 0): payload}
        flags = data_flags(log)
        assert len(flags) == 1 and not flags[0] & FLAG_BLOCKS

    def test_two_block_zlib_frame_is_pinned(self):
        """Wire format v2.3: header (flags 0x11 = compressed | blocks),
        then the table (count 2, two sizes), then the zlib blocks."""
        payload = bytes(BLOCK_BYTES + 8192)
        _report, sink, _tel, log = run_live(
            [Chunk("s1", 9, len(payload), payload=payload)]
        )
        assert sink.got == {("s1", 9): payload}
        wire = log[0]
        assert wire[:38].hex() == (
            "46504352" "0200" "7331"  # magic, stream id "s1"
            "09000000" "1100" "00201000"  # index 9, flags, orig_len
            "98a6c687" "38120000"  # crc32 of table + blocks, length
            "02000000" "16090000" "16090000"  # 2 blocks of 2326 bytes
        )
        assert hashlib.sha256(wire).hexdigest() == (
            "89623db7939b71a33cd79b06f4e2919c23788f3acf82c4f066955245c7c44bb6"
        )
        half = bytes(len(payload) // 2)
        assert zlib.decompress(wire[38 : 38 + 2326]) == half
        assert zlib.decompress(wire[38 + 2326 :]) == half


class TestTcpPipeline:
    def test_blocked_frames_delivered_exactly_once_over_tcp(self, projection):
        """Two streams over SenderClient -> ReceiverServer: the event
        plane hands blocked frames over whole and the decompressors run
        their blocks inline."""
        sink = Sink()
        with pytest.MonkeyPatch.context() as mp:
            log = _log_wire(mp)
            with ReceiverServer(
                codec="zlib", connections=2, decompress_threads=2,
                timeouts=TimeoutPolicy(accept=20, join=60),
            ) as server:
                served = []
                t = threading.Thread(
                    target=lambda: served.append(server.serve(sink))
                )
                t.start()
                sent = SenderClient(
                    *server.address, codec="zlib", connections=2,
                ).run(
                    Chunk(sid, 0, len(projection), payload=projection)
                    for sid in ("a", "b")
                )
                t.join(60)
        assert sent.ok, sent.errors
        assert served and served[0].ok, served
        assert sink.calls == 2
        assert sink.got == {("a", 0): projection, ("b", 0): projection}
        assert served[0].chunks == 2
        assert [f & FLAG_BLOCKS for f in data_flags(log)] == [FLAG_BLOCKS] * 2



class TestJoinUnderContention:
    """More threads than cores, a switch interval of a microsecond: a
    lost update in the join would lose a part or name two last blocks."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(old)

    def test_exactly_one_thread_finishes_each_join(self):
        slots, workers = 64, 8

        def work(join, last, mine):
            for slot in mine:
                if join.done(slot, bytes([slot]), 0.5):
                    last.append(slot)

        for _ in range(20):
            join = Join(Frame("s", 0, b""), slots)
            last = []
            threads = [
                threading.Thread(
                    target=work, args=(join, last, range(i, slots, workers))
                )
                for i in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not any(t.is_alive() for t in threads)
            assert len(last) == 1
            assert join.parts == [bytes([s]) for s in range(slots)]
            assert join.busy == slots * 0.5

    def test_many_threads_many_blocked_chunks(self):
        """Four compress and four decompress threads, six chunks of
        four blocks: every chunk once, byte-identical."""
        rng = np.random.default_rng(5)
        size = 3 * BLOCK_BYTES + 4096
        chunks = [
            Chunk("s", i, size,
                  payload=rng.integers(0, 16, size, dtype=np.uint8).tobytes())
            for i in range(6)
        ]
        expected = {("s", c.index): c.payload for c in chunks}
        report, sink, _tel, log = run_live(
            chunks, compress_threads=4, decompress_threads=4,
        )
        assert sink.calls == 6 and sink.got == expected
        assert report.stage_stats["compress"].chunks == 6
        assert all(f & FLAG_BLOCKS for f in data_flags(log))
