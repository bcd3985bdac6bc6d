"""LZ4 block codec: format correctness, round trips, malformed input."""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress import lz4_block
from repro.compress.lz4_block import (
    compress_block,
    compress_bound,
    decompress_block,
)
from repro.util.errors import CodecError


def walk_block(block: bytes) -> list[tuple[int, int, int]]:
    """Parse an LZ4 block independently of ``decompress_block``.

    Returns one ``(literals, offset, match_length)`` per sequence, the
    last with ``offset == match_length == 0``; asserts the stream is
    consumed exactly.
    """

    def length(pos: int, nibble: int) -> tuple[int, int]:
        total = nibble
        if nibble == 15:
            while True:
                byte = block[pos]
                pos += 1
                total += byte
                if byte != 255:
                    break
        return total, pos

    sequences = []
    pos = 0
    while True:
        token = block[pos]
        literals, pos = length(pos + 1, token >> 4)
        pos += literals
        assert pos <= len(block)
        if pos == len(block):
            assert token & 0x0F == 0
            sequences.append((literals, 0, 0))
            return sequences
        offset = block[pos] | block[pos + 1] << 8
        extra, pos = length(pos + 2, token & 0x0F)
        sequences.append((literals, offset, extra + 4))


def assert_spec_valid(data: bytes, acceleration: int = 1) -> list[tuple[int, int, int]]:
    """Compress ``data`` and hold the block to the format's rules."""
    block = compress_block(data, acceleration=acceleration)
    n = len(data)
    assert len(block) <= compress_bound(n)
    sequences = walk_block(block)
    produced = 0
    for literals, offset, mlen in sequences[:-1]:
        produced += literals
        assert 1 <= offset <= 65535
        assert offset <= produced
        # The last match starts >= 12 bytes before the end (so every one
        # does) and leaves the final five bytes to the literals.
        assert produced <= n - 12
        assert produced + mlen <= n - 5
        produced += mlen
    last_literals = sequences[-1][0]
    assert produced + last_literals == n
    assert last_literals >= min(n, 5)
    assert decompress_block(block) == data
    return sequences


class TestRoundTrip:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"abcdefgh",
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            b"abc" * 1000,
            bytes(range(256)) * 20,
            b"\x00" * 100_000,
            b"the quick brown fox jumps over the lazy dog " * 50,
        ],
        ids=["empty", "one", "short", "run", "period3", "cycle", "zeros", "text"],
    )
    def test_roundtrip(self, data):
        assert decompress_block(compress_block(data)) == data

    def test_random_data_roundtrip(self):
        data = os.urandom(50_000)
        comp = compress_block(data)
        assert decompress_block(comp) == data
        # Incompressible input must not blow up beyond the bound.
        assert len(comp) <= compress_bound(len(data))

    def test_compressible_actually_shrinks(self):
        data = b"tomography" * 10_000
        assert len(compress_block(data)) < len(data) // 10

    def test_long_match_extension(self):
        # Match length >> 15 exercises the 255-extension encoding.
        data = b"x" * 70_000
        comp = compress_block(data)
        assert decompress_block(comp) == data
        assert len(comp) < 300

    def test_long_literal_extension(self):
        data = os.urandom(1000)  # all literals, length >> 15
        assert decompress_block(compress_block(data)) == data

    def test_offset_at_64k_boundary(self):
        # Repetition separated by nearly 64 KiB still matchable; beyond
        # 65535 the compressor must fall back to literals but stay correct.
        pattern = os.urandom(64)
        data = pattern + os.urandom(65_400) + pattern + os.urandom(100)
        assert decompress_block(compress_block(data)) == data

    def test_acceleration_levels(self):
        data = (b"abcd" * 5000) + os.urandom(2000)
        sizes = []
        for acc in (1, 4, 16):
            comp = compress_block(data, acceleration=acc)
            assert decompress_block(comp) == data
            sizes.append(len(comp))
        assert sizes[0] <= sizes[-1]  # more acceleration, same or worse ratio

    def test_bad_acceleration(self):
        with pytest.raises(CodecError):
            compress_block(b"x", acceleration=0)

    @given(st.binary(max_size=5000))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, data):
        assert decompress_block(compress_block(data)) == data

    @given(
        st.binary(min_size=1, max_size=32),
        st.integers(2, 2000),
    )
    @settings(max_examples=50, deadline=None)
    def test_repetitive_roundtrip_property(self, unit, reps):
        data = unit * reps
        comp = compress_block(data)
        assert decompress_block(comp) == data


class TestParseHoldsFormat:
    """The parse is free to change; the format's rules are not."""

    @given(st.binary(max_size=5000), st.sampled_from([1, 3, 16]))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_binary(self, data, acceleration):
        assert_spec_valid(data, acceleration)

    @given(st.binary(min_size=1, max_size=32), st.integers(2, 2000))
    @settings(max_examples=50, deadline=None)
    def test_periodic(self, unit, reps):
        assert_spec_valid(unit * reps)

    @pytest.mark.parametrize(
        "data",
        [b"ab" * 5000, b"x" * 13, b"x" * 12, os.urandom(50_000)],
        ids=["ab5000", "n13", "n12", "urandom"],
    )
    def test_fixed_inputs(self, data):
        assert_spec_valid(data)

    def test_run_is_one_match_from_position_one(self):
        # Position 1's candidate is position 0; position 0 has none.
        assert assert_spec_valid(b"x" * 70_000) == [(1, 1, 69_994), (5, 0, 0)]

    @pytest.mark.parametrize("shape", [(256, 512), (512, 1024)])
    def test_spheres_chunk(self, shape, spheres_chunk):
        sequences = assert_spec_valid(spheres_chunk(shape))
        assert len(sequences) > 100  # a real parse, not one literal run

    @pytest.mark.parametrize("distance,used", [(65_535, True), (65_536, False)])
    def test_offset_boundary(self, distance, used):
        # A 64-byte pattern repeats `distance` bytes later; the filler
        # between shares no byte value with it, so only the pattern's
        # first copy can be the second's match.
        rng = random.Random(5)
        pattern = bytes(rng.randrange(128, 256) for _ in range(64))
        filler = bytes(rng.randrange(0, 128) for _ in range(distance - 64))
        data = pattern + filler + pattern + filler[:100]
        sequences = assert_spec_valid(data)
        at_boundary = [s for s in sequences if s[1] == 65_535 and s[2] >= 64]
        assert bool(at_boundary) == used
        if not used:  # no match may land on the second copy
            produced = 0
            for literals, _, mlen in sequences:
                produced += literals
                assert produced + mlen <= distance or produced >= distance + 64
                produced += mlen

    @pytest.mark.parametrize("distance,used", [(65_535, True), (65_536, False)])
    def test_second_pass_reaches_back_the_whole_offset_range(self, distance, used):
        # The match finder searches `_SEGMENT` positions per numpy pass.
        # Four bytes at the first position of the second pass repeat four
        # bytes `distance` earlier; their neighbours differ, so this one
        # position is the only place the match can be found from.
        at = lz4_block._SEGMENT
        rng = random.Random(6)
        data = bytearray(rng.choice(b"ab") for _ in range(at + 200))
        for copy, (before, after) in ((at - distance, b"cd"), (at, b"ef")):
            data[copy - 1 : copy + 5] = bytes([before, 200, 201, 202, 203, after])
        sequences = assert_spec_valid(bytes(data))
        assert ((65_535, 4) in [s[1:] for s in sequences]) == used

    def test_ratio_floor_on_benchmark_chunks(self, spheres_chunk):
        # perfbench's mp_lz4 corpus: its run reports `correct: false`
        # outside [1.6, 2.4], and the scan-loop compressor read 1.665.
        from repro.compress import get_codec

        codec = get_codec("lz4")
        chunks = [spheres_chunk((256, 512), i) for i in range(4)]
        raw = sum(len(c) for c in chunks)
        packed = sum(len(codec.compress(c)) for c in chunks)
        assert 1.66 <= raw / packed <= 2.4


class TestWorkCount:
    """The compressor walks sequences, not bytes: count interpreter line
    events, which repeat exactly where a wall-clock gate would not."""

    def test_lines_scale_with_sequences(self, spheres_chunk, count_lines):
        data = spheres_chunk((256, 512))
        sequences = len(walk_block(compress_block(data)))
        lines = count_lines(lz4_block, lambda: compress_block(data))
        assert 0 < lines < 100 * sequences + 5000


class TestFormatDetails:
    def test_empty_input_single_token(self):
        assert compress_block(b"") == b"\x00"

    def test_last_five_bytes_are_literals(self):
        # Decode the stream by hand: the final sequence must be literal-only
        # and cover >= 5 bytes for any input long enough to contain matches.
        data = b"ab" * 100
        comp = compress_block(data)
        # The last token in the stream has a zero match nibble; simplest
        # check: strip increasing literal tails until decode fails.
        assert decompress_block(comp) == data

    def test_known_literal_only_encoding(self):
        # 4 literals, no match: token 0x40 + the bytes.
        assert compress_block(b"wxyz") == b"\x40wxyz"

    def test_decompress_known_sequence(self):
        # token 0x11: 1 literal ("a"), match len 1+4=5, offset 1
        # => "a" + "aaaaa" followed by terminal literals "bcdef".
        block = b"\x11a\x01\x00" + b"\x50bcdef"
        assert decompress_block(block) == b"aaaaaa" + b"bcdef"

    def test_overlapping_match_semantics(self):
        # offset 1 replicates the previous byte (RLE).
        block = b"\x1fa\x01\x00\x10" + b"\x50bcdef"
        # match length = 15 + 16 + 4 = 35
        assert decompress_block(block) == b"a" * 36 + b"bcdef"


class TestMalformedInput:
    def test_empty_block_rejected(self):
        with pytest.raises(CodecError):
            decompress_block(b"")

    def test_truncated_literals(self):
        with pytest.raises(CodecError, match="literal run overflows"):
            decompress_block(b"\x50ab")  # promises 5 literals, has 2

    def test_missing_offset(self):
        with pytest.raises(CodecError, match="offset"):
            decompress_block(b"\x01\x05")  # match with a 1-byte offset

    def test_zero_offset_rejected(self):
        with pytest.raises(CodecError, match="zero offset"):
            decompress_block(b"\x10a\x00\x00" + b"\x50bcdef")

    def test_offset_before_start_rejected(self):
        with pytest.raises(CodecError, match="before block start"):
            decompress_block(b"\x10a\x05\x00" + b"\x50bcdef")

    def test_truncated_length_extension(self):
        with pytest.raises(CodecError):
            decompress_block(b"\xf0" + b"\xff" * 3)  # extension never ends

    def test_max_output_size_enforced(self):
        data = b"z" * 10_000
        comp = compress_block(data)
        with pytest.raises(CodecError, match="max_output_size"):
            decompress_block(comp, max_output_size=100)

    def test_bound_negative(self):
        with pytest.raises(CodecError):
            compress_bound(-1)

    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_garbage_never_crashes(self, garbage):
        """Arbitrary bytes either decode or raise CodecError — never
        an unexpected exception type."""
        try:
            decompress_block(garbage, max_output_size=1 << 20)
        except CodecError:
            pass
