"""Ring records: a wire frame, optionally followed by a compress stamp."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.transport import _HEADER, Frame, encode_frame, pack_blocks
from repro.mp.records import (
    STAMP,
    ChunkRecord,
    pack_record,
    unpack_record,
    unpack_stamped,
)
from repro.util.errors import FrameIntegrityError


class TestRoundTrip:
    def test_uncompressed_record(self):
        rec = ChunkRecord("s0", 7, b"payload", False, 7)
        back = unpack_record(pack_record(rec))
        assert back == rec
        assert back.key == ("s0", 7, False)

    def test_compressed_flag_and_orig_len_survive(self):
        rec = ChunkRecord("det-a", 123, b"\x00\x01", True, 4096)
        back = unpack_record(pack_record(rec))
        assert back.compressed is True
        assert back.orig_len == 4096

    def test_empty_payload(self):
        rec = ChunkRecord("s", 0, b"", False, 0)
        assert unpack_record(pack_record(rec)) == rec

    def test_record_is_the_frame_on_the_wire(self):
        """One record from compress to decompress: a ring slot holds the
        frame's wire bytes, and the stamp is a plain suffix."""
        assert ChunkRecord is Frame
        frame = Frame("s0", 7, b"data", compressed=True, orig_len=64, codec_id=2)
        assert pack_record(frame) == encode_frame(frame)
        stamped = pack_record(frame, (1.0, 2.0))
        assert stamped == encode_frame(frame) + STAMP.pack(1.0, 2.0)

    def test_blocked_frame_keeps_its_table_next_to_a_stamp(self):
        """The ring once had its own flag word, whose bit 4 meant "timed"
        where the wire's means "blocked"; a record now has the wire's."""
        payload, sizes = pack_blocks([b"first", b"second"])
        frame = Frame("s", 1, payload, compressed=True, orig_len=99, blocks=sizes)
        back, stamp = unpack_stamped(pack_record(frame, (3.0, 4.0)))
        assert back == frame and back.blocks == sizes
        assert stamp == (3.0, 4.0)


class TestMalformed:
    def test_truncated_header_rejected(self):
        with pytest.raises(FrameIntegrityError, match="truncated"):
            unpack_record(b"\x01\x02")

    def test_truncated_stream_id_rejected(self):
        packed = pack_record(ChunkRecord("stream", 1, b"", False, 0))
        with pytest.raises(FrameIntegrityError, match="truncated"):
            unpack_record(packed[: _HEADER.size + 3])

    def test_flipped_payload_byte_rejected(self):
        packed = bytearray(pack_record(ChunkRecord("s", 0, b"payload", True, 9)))
        packed[-1] ^= 0x01
        with pytest.raises(FrameIntegrityError, match="checksum"):
            unpack_record(bytes(packed))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        stream_id=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1,
            max_size=32,
        ),
        index=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=512),
        compressed=st.booleans(),
        orig_len=st.integers(0, 2**32 - 1),
    )
    def test_arbitrary_records_survive_the_codec(
        self, stream_id, index, payload, compressed, orig_len
    ):
        rec = ChunkRecord(stream_id, index, payload, compressed, orig_len)
        assert unpack_record(pack_record(rec)) == rec

    @settings(max_examples=60, deadline=None)
    @given(
        traced=st.booleans(),
        rest=st.binary(max_size=40).filter(lambda b: len(b) not in (0, STAMP.size)),
    )
    def test_only_a_whole_stamp_may_follow_the_frame(self, traced, rest):
        frame = Frame("s", 0, b"xy", orig_len=2, traced=traced, sent_at=5.0)
        with pytest.raises(FrameIntegrityError, match="after its frame"):
            unpack_stamped(pack_record(frame) + rest)


class TestTraceFlags:
    def test_traced_bit_round_trips(self):
        rec = ChunkRecord("s", 3, b"p", False, 1, traced=True)
        back, stamp = unpack_stamped(pack_record(rec))
        assert back.traced is True
        assert stamp is None

    def test_time_trailer_round_trips(self):
        rec = ChunkRecord("s", 3, b"p", True, 8)
        back, stamp = unpack_stamped(pack_record(rec, (10.5, 11.25)))
        assert stamp == (10.5, 11.25)
        assert back.payload == b"p"

    def test_traced_and_timed_compose(self):
        rec = ChunkRecord("s", 0, b"xy", False, 2, codec_id=3, traced=True)
        back, stamp = unpack_stamped(pack_record(rec, (1.0, 2.0)))
        assert back == rec
        assert stamp == (1.0, 2.0)

    def test_truncated_time_trailer_rejected(self):
        packed = pack_record(ChunkRecord("s", 0, b"", False, 0), (1.0, 2.0))
        with pytest.raises(FrameIntegrityError, match="after its frame"):
            unpack_record(packed[:-1])
