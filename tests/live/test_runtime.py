"""Live pipeline end-to-end on this host."""

import numpy as np
import pytest

from repro.data.chunking import Chunk
from repro.live.runtime import LiveConfig, LivePipeline
from repro.util.errors import ValidationError
from repro.util.rng import make_rng


def payload_chunks(n=8, size=4096, stream="s1", seed=0):
    rng = make_rng(seed, "live-test")
    for i in range(n):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        yield Chunk(stream_id=stream, index=i, nbytes=size, payload=data)


class TestEndToEnd:
    def test_all_chunks_delivered(self):
        pipe = LivePipeline(LiveConfig(codec="zlib"))
        report = pipe.run(payload_chunks(10))
        assert report.ok, report.errors
        assert report.chunks == 10
        assert report.bytes_in == report.bytes_out == 10 * 4096

    def test_payload_integrity_via_sink(self):
        originals = {}

        def source():
            for c in payload_chunks(6):
                originals[(c.stream_id, c.index)] = c.payload
                yield c

        received = {}
        pipe = LivePipeline(LiveConfig(codec="zlib"))
        report = pipe.run(
            source(), sink=lambda s, i, d: received.__setitem__((s, i), d)
        )
        assert report.ok
        assert received == originals

    def test_multiple_connections(self):
        pipe = LivePipeline(
            LiveConfig(codec="zlib", connections=3, compress_threads=3)
        )
        report = pipe.run(payload_chunks(15))
        assert report.ok
        assert report.chunks == 15

    def test_lz4_codec_path(self):
        pipe = LivePipeline(LiveConfig(codec="lz4", compress_threads=2))
        report = pipe.run(payload_chunks(4, size=2048))
        assert report.ok
        assert report.chunks == 4

    def test_compressible_data_shrinks_on_wire(self):
        chunks = [
            Chunk(stream_id="s", index=i, nbytes=8192, payload=b"ab" * 4096)
            for i in range(4)
        ]
        report = LivePipeline(LiveConfig(codec="zlib")).run(iter(chunks))
        assert report.ok
        assert report.compression_ratio > 5.0

    def test_missing_payload_is_error(self):
        bad = [Chunk(stream_id="s", index=0, nbytes=10, payload=None)]
        report = LivePipeline(LiveConfig(codec="zlib")).run(iter(bad))
        assert not report.ok

    def test_empty_source(self):
        report = LivePipeline(LiveConfig(codec="zlib")).run(iter([]))
        assert report.ok
        assert report.chunks == 0

    def test_summary_renders(self):
        report = LivePipeline(LiveConfig(codec="zlib")).run(payload_chunks(3))
        text = report.summary()
        assert "chunks=3" in text and "ratio=" in text


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            LiveConfig(compress_threads=0)
        with pytest.raises(ValidationError):
            LiveConfig(connections=0)

    def test_forkserver_is_refused(self):
        # Only the start methods a test or the benchmark uses are kept.
        with pytest.raises(ValidationError, match="'spawn' or 'fork'"):
            LiveConfig(mp_start_method="forkserver")
