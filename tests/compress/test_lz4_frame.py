"""LZ4 frame container: round trips, checksums, malformed frames."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.compress.lz4_frame import MAGIC, compress_frame, decompress_frame
from repro.util.errors import CodecError


class TestRoundTrip:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"abc" * 1000, b"\x00" * 300_000, os.urandom(100_000)],
        ids=["empty", "one", "small", "zeros-multiblock", "random"],
    )
    def test_roundtrip(self, data):
        assert decompress_frame(compress_frame(data)) == data

    def test_block_checksums(self):
        data = b"spheres" * 10_000
        f = compress_frame(data, block_checksums=True)
        assert decompress_frame(f) == data

    def test_small_block_size_multiblock(self):
        data = os.urandom(300_000)
        f = compress_frame(data, block_max_size=64 * 1024)
        assert decompress_frame(f) == data

    def test_no_content_size(self):
        data = b"abc" * 100
        f = compress_frame(data, store_content_size=False)
        assert decompress_frame(f) == data

    def test_no_content_checksum(self):
        data = b"abc" * 100
        f = compress_frame(data, content_checksum=False)
        assert decompress_frame(f) == data

    def test_incompressible_blocks_stored_raw(self):
        data = os.urandom(70_000)
        f = compress_frame(data, block_max_size=64 * 1024)
        # Raw storage keeps overhead tiny for incompressible input.
        assert len(f) <= len(data) + 64
        assert decompress_frame(f) == data

    @given(st.binary(max_size=10_000))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        assert decompress_frame(compress_frame(data)) == data


class TestCompatibility:
    #: ``compress_frame(_OLD_INPUT, block_checksums=True)`` as written by
    #: the scan-loop compressor (commit dc86885).  Block payloads depend
    #: on the parse and may differ today; every frame ever written must
    #: still decode.
    _OLD_INPUT = b"tomography " * 12 + bytes(range(32)) + b"scan tomography scan " * 4
    _OLD_FRAME = bytes.fromhex(
        "04224d187c70f8000000000000003450000000bf746f6d6f677261706879200b"
        "0066f815000102030405060708090a0b0c0d0e0f101112131415161718191a1b"
        "1c1d1e1f7363616e9e0001100001050007b3000110000105000f15000d507363"
        "616e206e53293000000000bbc8df32"
    )

    def test_frame_from_previous_compressor_decodes(self):
        assert decompress_frame(self._OLD_FRAME) == self._OLD_INPUT

    def test_container_is_unchanged(self):
        # Magic, FLG/BD, content size and HC are byte-identical; so are
        # the EndMark and the content checksum over the same input.
        new = compress_frame(self._OLD_INPUT, block_checksums=True)
        assert new[:15] == self._OLD_FRAME[:15]
        assert new[-8:] == self._OLD_FRAME[-8:]

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_input_buffer_kinds(self, wrap):
        data = b"abc" * 1000
        assert decompress_frame(compress_frame(wrap(data))) == data

    def test_non_contiguous_input(self):
        data = bytes(range(256)) * 8
        assert decompress_frame(compress_frame(memoryview(data)[::2])) == data[::2]


class TestFrameHeader:
    def test_magic_present(self):
        f = compress_frame(b"hello")
        assert int.from_bytes(f[:4], "little") == MAGIC

    def test_bad_magic_rejected(self):
        f = bytearray(compress_frame(b"hello"))
        f[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decompress_frame(bytes(f))

    def test_bad_block_size_param(self):
        with pytest.raises(CodecError, match="block_max_size"):
            compress_frame(b"x", block_max_size=12345)

    def test_header_checksum_detects_descriptor_corruption(self):
        f = bytearray(compress_frame(b"hello"))
        f[5] ^= 0x08  # flip a descriptor bit (content-size flag region)
        with pytest.raises(CodecError):
            decompress_frame(bytes(f))


class TestIntegrity:
    def test_content_checksum_detects_payload_corruption(self):
        data = b"scientific data " * 1000
        f = bytearray(compress_frame(data, content_checksum=True))
        f[len(f) // 2] ^= 0x01
        with pytest.raises(CodecError):
            decompress_frame(bytes(f))

    def test_block_checksum_detects_corruption(self):
        data = os.urandom(50_000)  # stored raw; block checksum guards it
        f = bytearray(
            compress_frame(data, block_checksums=True, content_checksum=False)
        )
        f[100] ^= 0x01
        with pytest.raises(CodecError):
            decompress_frame(bytes(f))

    def test_content_size_mismatch_detected(self):
        data = b"abcd" * 100
        f = bytearray(compress_frame(data, content_checksum=False))
        # Content size lives in the descriptor at offset 6..14; bump it
        # and fix the HC byte so only the size check can catch it.
        from repro.compress.xxhash import xxhash32

        f[6:14] = (len(data) + 1).to_bytes(8, "little")
        f[14] = (xxhash32(bytes(f[4:14])) >> 8) & 0xFF
        with pytest.raises(CodecError, match="content size"):
            decompress_frame(bytes(f))

    @pytest.mark.parametrize("raw_flag", [0, 0x80000000], ids=["compressed", "stored"])
    def test_block_larger_than_frame_maximum_rejected(self, raw_flag):
        # Block_Size may not exceed Block_Maximum_Size for either kind
        # of block; one byte over a 64 KiB maximum must be refused
        # before the payload is read.
        block_max = 64 * 1024
        f = bytearray(compress_frame(b"", block_max_size=block_max))
        assert f[-8:-4] == b"\x00" * 4  # EndMark, then content checksum
        oversized = (block_max + 1 | raw_flag).to_bytes(4, "little")
        f[-8:-8] = oversized + b"\x00" * (block_max + 1)
        with pytest.raises(CodecError, match="exceeds frame maximum"):
            decompress_frame(bytes(f))

    def test_truncation_detected(self):
        f = compress_frame(b"hello world" * 100)
        for cut in (3, 6, len(f) // 2, len(f) - 1):
            with pytest.raises(CodecError):
                decompress_frame(f[:cut])
