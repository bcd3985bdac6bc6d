"""Head-based sampling: the one decision point of the tracing layer."""

import threading

import pytest

from repro.telemetry import HeadSampler, TraceContext


class TestTraceContext:
    def test_key_is_the_pipeline_identity(self):
        ctx = TraceContext("det1", 42)
        assert ctx.key == ("det1", 42)

    def test_frozen_and_hashable(self):
        a = TraceContext("s", 1)
        b = TraceContext("s", 1)
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.chunk_id = 2


class TestHeadSampler:
    def test_disabled_sampler_never_samples(self):
        sampler = HeadSampler(0)
        assert not sampler.enabled
        assert all(
            sampler.sample_chunk("s", i) is None for i in range(16)
        )
        assert sampler.traces_started() == 0

    def test_sample_one_traces_every_chunk(self):
        sampler = HeadSampler(1)
        got = [sampler.sample_chunk("s", i) for i in range(8)]
        assert all(ctx is not None for ctx in got)
        assert [ctx.chunk_id for ctx in got] == list(range(8))

    def test_one_in_n_pattern_starts_at_first_chunk(self):
        sampler = HeadSampler(4)
        got = [sampler.sample_chunk("s", i) for i in range(12)]
        sampled = [i for i, ctx in enumerate(got) if ctx is not None]
        # Offset 0 of the pattern: even a 1-chunk stream gets a trace.
        assert sampled == [0, 4, 8]

    def test_streams_sample_independently(self):
        sampler = HeadSampler(2)
        for _ in range(3):
            sampler.sample_chunk("a", 0)
        # Stream "b" starts its own 1-in-2 pattern at its first chunk.
        assert sampler.sample_chunk("b", 0) is not None

    def test_per_stream_cap_bounds_traces(self):
        sampler = HeadSampler(1, per_stream_cap=2)
        got = [sampler.sample_chunk("s", i) for i in range(10)]
        assert sum(ctx is not None for ctx in got) == 2
        assert sampler.traces_started("s") == 2
        # The cap is per stream, not global.
        assert sampler.sample_chunk("other", 0) is not None
        assert sampler.traces_started() == 3

    def test_context_carries_the_chunk_identity(self):
        sampler = HeadSampler(1)
        ctx = sampler.sample_chunk("det7", 99)
        assert ctx == TraceContext("det7", 99)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            HeadSampler(-1)
        with pytest.raises(ValueError):
            HeadSampler(1, per_stream_cap=-1)

    def test_thread_safe_cap_accounting(self):
        sampler = HeadSampler(1, per_stream_cap=100)
        barrier = threading.Barrier(4)
        hits = []

        def feed():
            barrier.wait()
            mine = 0
            for i in range(200):
                if sampler.sample_chunk("shared", i) is not None:
                    mine += 1
            hits.append(mine)

        threads = [threading.Thread(target=feed) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sum(hits) == 100
        assert sampler.traces_started("shared") == 100
