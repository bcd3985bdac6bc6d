"""Chunk model and chunk sources."""

import pytest

from repro.data.chunking import Chunk, DatasetChunkSource, SyntheticChunkSource
from repro.util.errors import ValidationError


class TestChunk:
    def test_wire_bytes_from_ratio(self):
        c = Chunk("s", 0, nbytes=1000, ratio=2.0)
        assert c.wire_bytes == 500

    def test_wire_bytes_from_a_measured_ratio(self):
        c = Chunk("s", 0, nbytes=999, ratio=999 / 333)
        assert c.wire_bytes == 333

    def test_wire_bytes_at_least_one(self):
        c = Chunk("s", 0, nbytes=1, ratio=100.0)
        assert c.wire_bytes == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            Chunk("s", 0, nbytes=-1)
        with pytest.raises(ValidationError):
            Chunk("s", 0, nbytes=1, ratio=0.0)


class TestSyntheticSource:
    def test_count_and_sizes(self):
        src = SyntheticChunkSource("s", num_chunks=10, chunk_bytes=100)
        chunks = list(src.chunks())
        assert len(chunks) == 10
        assert all(c.nbytes == 100 for c in chunks)
        assert [c.index for c in chunks] == list(range(10))

    def test_ratio_jitter_around_mean(self):
        src = SyntheticChunkSource(
            "s", num_chunks=200, chunk_bytes=100, ratio_mean=2.0, ratio_sigma=0.05
        )
        ratios = [c.ratio for c in src.chunks()]
        mean = sum(ratios) / len(ratios)
        assert 1.9 <= mean <= 2.1
        assert min(ratios) >= 1.0

    def test_zero_sigma_exact(self):
        src = SyntheticChunkSource(
            "s", num_chunks=5, chunk_bytes=100, ratio_mean=2.0, ratio_sigma=0.0
        )
        assert all(c.ratio == 2.0 for c in src.chunks())

    def test_deterministic_by_seed(self):
        a = [c.ratio for c in SyntheticChunkSource("s", 20, 100, seed=1).chunks()]
        b = [c.ratio for c in SyntheticChunkSource("s", 20, 100, seed=1).chunks()]
        assert a == b

    def test_stream_id_changes_stream(self):
        a = [c.ratio for c in SyntheticChunkSource("s1", 20, 100, seed=1).chunks()]
        b = [c.ratio for c in SyntheticChunkSource("s2", 20, 100, seed=1).chunks()]
        assert a != b

    def test_validation(self):
        with pytest.raises(ValidationError):
            SyntheticChunkSource("s", num_chunks=-1, chunk_bytes=100)
        with pytest.raises(ValidationError):
            SyntheticChunkSource("s", num_chunks=1, chunk_bytes=0)


class TestDatasetSource:
    def test_payloads_from_dataset(self):
        class FakeDataset:
            num_projections = 3

            def chunk_payload(self, i):
                return bytes([i]) * 10

        chunks = list(DatasetChunkSource("s", FakeDataset()).chunks())
        assert len(chunks) == 3
        assert chunks[1].payload == b"\x01" * 10
        assert chunks[1].nbytes == 10

    def test_limit(self):
        class FakeDataset:
            num_projections = 100

            def chunk_payload(self, i):
                return b"x"

        chunks = list(DatasetChunkSource("s", FakeDataset(), limit=5).chunks())
        assert len(chunks) == 5
