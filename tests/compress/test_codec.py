"""Codec registry, CodecSpec, resolution, and codec behaviour."""

import os

import pytest
from hypothesis import given, settings, strategies as st

import repro.compress
from repro.compress import xxhash
from repro.compress.codec import (
    Codec,
    CodecSpec,
    DeltaShuffleLZ4Codec,
    LZ4Codec,
    NullCodec,
    ShuffleLZ4Codec,
    ZlibCodec,
    available_codecs,
    codec_class,
    codec_spec,
    decompressor_for,
    get_codec,
    register_codec,
    resolve_codec,
)
from repro.util.errors import CodecError, ValidationError
from tests.compress import test_lz4_frame as lz4_frame_tests

#: Every registered codec.
ALL = ["delta-shuffle-lz4", "lz4", "null", "shuffle-lz4", "zlib"]

#: Codecs whose itemsize constraint requires even-length payloads.
EVEN_ONLY = {"shuffle-lz4", "delta-shuffle-lz4"}


class TestRegistry:
    def test_available(self):
        assert set(available_codecs()) == set(ALL)

    def test_get_codec_types(self):
        assert isinstance(get_codec("lz4"), LZ4Codec)
        assert isinstance(get_codec("zlib"), ZlibCodec)
        assert isinstance(get_codec("null"), NullCodec)
        assert isinstance(get_codec("shuffle-lz4"), ShuffleLZ4Codec)
        assert isinstance(get_codec("delta-shuffle-lz4"), DeltaShuffleLZ4Codec)

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError, match="unknown codec"):
            get_codec("gzip9000")

    def test_kwargs_forwarded(self):
        c = get_codec("zlib", level=9)
        assert c.level == 9

    def test_wire_ids_stable(self):
        # Wire ids are part of the frame format — they must never move.
        expected = {
            "lz4": 1,
            "shuffle-lz4": 2,
            "delta-shuffle-lz4": 3,
            "zlib": 4,
            "null": 5,
        }
        for name, wid in expected.items():
            assert codec_class(name).wire_id == wid

    def test_decompressor_for(self):
        z = get_codec("zlib")
        wire = z.compress(b"hello" * 100)
        assert decompressor_for(4).decompress(wire) == b"hello" * 100
        # Cached instance, not a new one per frame.
        assert decompressor_for(4) is decompressor_for(4)

    def test_decompressor_for_unknown_id(self):
        # 6 and 7 are the retired bz2 and zstd ids: no decoder, a clean
        # CodecError rather than a KeyError from the registry.
        for wire_id in (251, 6, 7):
            with pytest.raises(CodecError, match="unknown codec wire id"):
                decompressor_for(wire_id)

    @pytest.mark.parametrize("wire_id,holder", [(6, "bz2"), (7, "zstd")])
    def test_register_retired_wire_id_rejected(self, wire_id, holder):
        with pytest.raises(ValidationError, match=f"retired.*{holder}"):

            @register_codec(wire_id=wire_id)
            class Recycled(NullCodec):
                name = "recycled"

    def test_register_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):

            @register_codec(wire_id=200)
            class Duplicate(NullCodec):
                name = "zlib"

    def test_register_duplicate_wire_id_rejected(self):
        with pytest.raises(ValidationError, match="already taken"):

            @register_codec(wire_id=4)
            class Clash(NullCodec):
                name = "zlib-imposter"

    def test_register_unnamed_rejected(self):
        with pytest.raises(ValidationError, match="non-empty name"):

            @register_codec(wire_id=201)
            class Nameless(NullCodec):
                name = ""

    def test_third_party_codec_plugs_in(self):
        @register_codec(wire_id=202)
        class Reverse(Codec):
            name = "test-reverse"

            def compress(self, data: bytes) -> bytes:
                return data[::-1]

            def decompress(self, data: bytes) -> bytes:
                return data[::-1]

        try:
            c = resolve_codec("test-reverse")
            assert c.decompress(c.compress(b"abc")) == b"abc"
            assert "test-reverse" in available_codecs()
            wire, wid = c.compress_with_id(b"abc")
            assert wid == 0  # static codecs defer to the configured codec
        finally:
            # Keep the registry clean for the other tests.
            from repro.compress import codec as codec_mod

            codec_mod._REGISTRY.pop("test-reverse", None)
            codec_mod._WIRE_IDS.pop(202, None)
            codec_mod._DECOMPRESSORS.pop(202, None)


class TestCodecSpec:
    def test_parse_bare_name(self):
        assert CodecSpec.parse("zlib") == CodecSpec("zlib")

    def test_parse_params(self):
        spec = CodecSpec.parse("zlib:level=6")
        assert spec == CodecSpec("zlib", {"level": 6})
        assert spec.create().level == 6

    def test_parse_bool_and_float(self):
        spec = CodecSpec.parse("x:flag=true,rate=2.5,name=tag")
        assert spec.params == {"flag": True, "rate": 2.5, "name": "tag"}

    def test_str_round_trip(self):
        for text in ("zlib", "zlib:level=6", "x:flag=True,name=tag,rate=2.5"):
            assert str(CodecSpec.parse(text)) == text

    def test_dict_round_trip(self):
        spec = CodecSpec.parse("x:flag=true,rate=2.5,name=tag")
        assert CodecSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            CodecSpec.from_dict({"name": "zlib", "bogus": 1})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            CodecSpec.parse("")
        with pytest.raises(ValidationError):
            CodecSpec("")

    def test_bad_segment_rejected(self):
        with pytest.raises(ValidationError, match="key=value"):
            CodecSpec.parse("zlib:level")

    def test_bad_params_rejected_at_create(self):
        with pytest.raises(ValidationError, match="rejected params"):
            CodecSpec("zlib", {"bogus_knob": 1}).create()


class TestResolveCodec:
    def test_from_string(self):
        assert isinstance(resolve_codec("zlib"), ZlibCodec)

    def test_from_spec(self):
        assert resolve_codec(CodecSpec("zlib", {"level": 2})).level == 2

    def test_instance_passes_through(self):
        c = ZlibCodec()
        assert resolve_codec(c) is c

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            resolve_codec(42)

    def test_codec_spec_inverse(self):
        assert codec_spec("zlib:level=6") == CodecSpec("zlib", {"level": 6})
        # An instance reports the spec it was built from, params and
        # all, and the string survives a parse (the mp boundary).
        for text in ("zlib:level=9", "shuffle-lz4:itemsize=4"):
            built = codec_spec(resolve_codec(text))
            assert str(built) == text
            assert codec_spec(str(built)) == built
        # One constructed directly has no record of its params.
        with pytest.raises(ValidationError, match="not built from a spec"):
            codec_spec(ZlibCodec(level=9))


class TestRemovedAdaptive:
    """The adaptive codec and its ``|``-list grammar were removed."""

    @pytest.mark.parametrize(
        "text", ["adaptive", "adaptive:allowed=zlib|null,probe_interval=8"]
    )
    def test_name_is_refused_saying_so(self, text):
        with pytest.raises(ValidationError, match="'adaptive' was removed"):
            resolve_codec(text)

    @pytest.mark.parametrize(
        "text", ["zlib:allowed=zlib|null", "null:probe_interval=8"]
    )
    def test_its_params_are_refused(self, text):
        with pytest.raises(ValidationError, match="rejected params"):
            resolve_codec(text)

    def test_bar_is_not_a_list(self):
        assert CodecSpec.parse("x:allowed=a|b").params == {"allowed": "a|b"}


class TestRoundTrips:
    @pytest.mark.parametrize("name", ALL)
    def test_roundtrip(self, name):
        data = b"projection row " * 1000  # multiple of 2 for shuffle codecs
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("name", ALL)
    def test_empty(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(b"")) == b""

    @pytest.mark.parametrize("name", sorted(set(ALL) - EVEN_ONLY))
    @given(data=st.binary(max_size=4096))
    @settings(max_examples=25, deadline=None)
    def test_hostile_round_trip(self, name, data):
        """Every registered codec survives arbitrary bytes: empty,
        1-byte, and non-multiple-of-itemsize payloads included."""
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    @pytest.mark.parametrize("name", sorted(EVEN_ONLY))
    @given(data=st.binary(max_size=4096))
    @settings(max_examples=25, deadline=None)
    def test_hostile_round_trip_itemsize(self, name, data):
        """Shuffle codecs: aligned payloads round-trip; misaligned ones
        fail loudly with CodecError rather than corrupting."""
        codec = get_codec(name)
        if len(data) % 2 == 0:
            assert codec.decompress(codec.compress(data)) == data
        else:
            with pytest.raises(CodecError):
                codec.compress(data)

    @given(data=st.binary(max_size=4096).map(lambda b: b[: len(b) // 2 * 2]))
    @settings(max_examples=40, deadline=None)
    def test_delta_shuffle_lz4_property(self, data):
        codec = get_codec("delta-shuffle-lz4")
        assert codec.decompress(codec.compress(data)) == data

    def test_frame_wire_id_picks_the_decoder(self, spheres_chunk):
        """A frame that names its codec decodes with that codec, not the
        configured one: the wire format stays self-describing."""
        from repro.data.chunking import Chunk
        from repro.live.runtime import LiveConfig, LivePipeline

        class NamesZlib(ZlibCodec):
            def compress_with_id(self, data):
                return self.compress(data), ZlibCodec.wire_id

            def decompress(self, data):
                raise AssertionError("decoded by the configured codec")

        payload = spheres_chunk((64, 128))
        got = {}
        report = LivePipeline(
            LiveConfig(compress_threads=1, decompress_threads=1),
            codec=NamesZlib(),
        ).run(
            iter([Chunk("s", 0, len(payload), payload=payload)]),
            sink=lambda sid, i, data: got.update({i: bytes(data)}),
        )
        assert report.ok, report.errors
        assert report.wire_bytes < len(payload)
        assert got == {0: payload}


class TestBlockSlices:
    """The live pipeline hands codecs zero-copy ``memoryview`` slices at
    4 KiB-aligned offsets (repro.live.blocks), in both directions."""

    @pytest.mark.parametrize("name", available_codecs())
    def test_memoryview_slice_round_trip(self, name, spheres_chunk):
        buf = spheres_chunk((64, 128))  # 16 KiB of uint16 samples
        block = memoryview(buf)[4096:12288]
        codec = get_codec(name)
        wire, wid = codec.compress_with_id(block)
        decoder = decompressor_for(wid) if wid else codec
        carrier = bytes(4096) + bytes(wire) + bytes(7)
        out = decoder.decompress(memoryview(carrier)[4096 : 4096 + len(wire)])
        assert bytes(out) == bytes(block)

    def test_every_codec_splits_but_null(self):
        keep_whole = {n for n in available_codecs() if not codec_class(n).splits}
        assert keep_whole == {"null"}


class TestRatio:
    def test_null_ratio_one(self):
        assert get_codec("null").ratio(b"x" * 100) == 1.0

    def test_ratio_empty(self):
        assert get_codec("lz4").ratio(b"") == 1.0

    def test_compressible_ratio_above_one(self):
        assert get_codec("lz4").ratio(b"ab" * 5000) > 10.0

    def test_random_ratio_near_one(self):
        assert 0.9 < get_codec("lz4").ratio(os.urandom(10_000)) <= 1.01

    def test_ratio_from_lengths_skips_recompress(self):
        """Passing the wire payload computes from lengths alone."""

        class Counting(ZlibCodec):
            calls = 0

            def compress(self, data: bytes) -> bytes:
                type(self).calls += 1
                return super().compress(data)

        codec = Counting()
        data = b"ab" * 5000
        wire = codec.compress(data)
        assert Counting.calls == 1
        ratio = codec.ratio(data, wire)
        assert Counting.calls == 1  # no second compression
        assert ratio == len(data) / len(wire)


class TestValidation:
    def test_lz4_acceleration(self):
        with pytest.raises(ValidationError):
            LZ4Codec(acceleration=0)

    def test_zlib_level(self):
        with pytest.raises(ValidationError):
            ZlibCodec(level=10)

    def test_shuffle_itemsize(self):
        with pytest.raises(ValidationError):
            ShuffleLZ4Codec(itemsize=0)
        with pytest.raises(ValidationError):
            DeltaShuffleLZ4Codec(itemsize=3)

    def test_zlib_garbage_raises_codec_error(self):
        with pytest.raises(CodecError):
            get_codec("zlib").decompress(b"not zlib data")

    def test_lz4_garbage_raises_codec_error(self):
        with pytest.raises(CodecError):
            get_codec("lz4").decompress(b"not an lz4 frame")

    def test_shuffle_codec_misaligned_payload(self):
        with pytest.raises(CodecError):
            get_codec("shuffle-lz4").compress(b"abc")


class TestBlockMaxSizeValidation:
    """An LZ4 block size outside the frame format's four is refused when
    the codec is built, like a bad acceleration, instead of failing
    every chunk in the compressor."""

    @pytest.mark.parametrize(
        "spec",
        [
            "lz4:block_max_size=12345",
            "shuffle-lz4:block_max_size=100",
            "delta-shuffle-lz4:block_max_size=65537",
            "lz4:block_max_size=65536.0",
        ],
    )
    def test_refused_at_spec(self, spec):
        with pytest.raises(ValidationError, match="block_max_size"):
            resolve_codec(spec)

    @pytest.mark.parametrize("size", [65536, 262144, 1048576, 4194304])
    def test_frame_sizes_accepted(self, size):
        codec = resolve_codec(f"lz4:block_max_size={size}")
        data = bytes(range(256)) * 300
        assert codec.decompress(codec.compress(data)) == data


class TestLZ4FrameCost:
    """The ``lz4`` codec writes frames without the xxHash32 content
    checksum: the transport frame's CRC-32 covers every hop a compressed
    chunk takes.  One round trip of a 256 KiB spheres chunk, counted."""

    def test_frame_has_no_content_checksum(self, spheres_chunk):
        data = spheres_chunk((256, 512))
        wire = get_codec("lz4").compress(data)
        assert not wire[4] & 0b100  # FLG content-checksum bit
        assert wire[-4:] == b"\x00\x00\x00\x00"  # ends at its EndMark

    def test_no_stripe_loop_on_a_round_trip(self, spheres_chunk, monkeypatch):
        calls = []
        stripes = xxhash._stripes

        def counting(*args):
            calls.append(args)
            return stripes(*args)

        monkeypatch.setattr(xxhash, "_stripes", counting)
        data = spheres_chunk((256, 512))
        codec = get_codec("lz4")
        assert codec.decompress(codec.compress(data)) == data
        assert len(calls) == 0  # 2 with the content checksum on

    def test_round_trip_line_events(self, spheres_chunk, count_lines):
        data = spheres_chunk((256, 512))
        codec = get_codec("lz4")
        lines = count_lines(
            repro.compress, lambda: codec.decompress(codec.compress(data))
        )
        # 44 683 now; 143 083 with the content checksum on.
        assert 0 < lines <= 60_000

    def test_checksummed_frame_still_decodes_and_verifies(self):
        old = lz4_frame_tests.TestCompatibility
        codec = get_codec("lz4")
        assert codec.decompress(old._OLD_FRAME) == old._OLD_INPUT
        flipped = bytearray(old._OLD_FRAME)
        flipped[-1] ^= 0x01  # the content-checksum trailer
        with pytest.raises(CodecError, match="content checksum"):
            codec.decompress(bytes(flipped))
