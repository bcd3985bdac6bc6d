"""The sink must be able to fail, and the codec proxy must be inert.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compress.codec import resolve_codec

from perfbench.child import block_stat
from perfbench.harness import TAG, Feed, VerifyingSink
from perfbench.layers import CodecProxy, serial_pass
from perfbench.workloads import WORKLOADS, Workload, build_corpus, ratio_in_band

STREAMS = ("s0", "s1")


def _corpus() -> list[bytes]:
    rng = np.random.default_rng(5)
    return [rng.integers(0, 256, 4096, dtype=np.uint8).tobytes() for _ in range(3)]


def _deliver(sink: VerifyingSink, feed: Feed, *, skip=(), twice=(), flip=()) -> None:
    for j, chunk in enumerate(feed):
        if j in skip:
            continue
        data = chunk.payload
        if j in flip:
            data = data[:100] + bytes([data[100] ^ 0x01]) + data[101:]
        for _ in range(2 if j in twice else 1):
            sink(chunk.stream_id, chunk.index, data)


@pytest.mark.parametrize("tagged", [False, True])
def test_sink_passes_an_exact_delivery(tagged: bool) -> None:
    corpus = _corpus()
    sink = VerifyingSink(corpus, 10, STREAMS, tagged=tagged)
    _deliver(sink, Feed(corpus, 10, STREAMS, tagged=tagged))
    assert sink.failed == 0
    assert sink.good_bytes == 10 * 4096
    assert all(sink.verified)


@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize(
    "fault", [{"flip": (4,)}, {"skip": (7,)}, {"twice": (2,)}]
)
def test_sink_detects_a_flipped_byte_a_drop_and_a_duplicate(
    fault: dict, tagged: bool
) -> None:
    corpus = _corpus()
    sink = VerifyingSink(corpus, 10, STREAMS, tagged=tagged)
    _deliver(sink, Feed(corpus, 10, STREAMS, tagged=tagged), **fault)
    assert sink.failed == 1


def test_sink_counts_a_chunk_the_feed_never_produced() -> None:
    corpus = _corpus()
    sink = VerifyingSink(corpus, 4, STREAMS)
    _deliver(sink, Feed(corpus, 4, STREAMS))
    sink("s0", 99, corpus[0])
    sink("nobody", 0, corpus[0])
    assert sink.failed == 2


def test_tagged_sink_rejects_the_right_bytes_under_the_wrong_ordinal() -> None:
    corpus = _corpus()
    sink = VerifyingSink(corpus, 6, ("s0",), tagged=True)
    chunks = list(Feed(corpus, 6, ("s0",), tagged=True))
    # Chunk 3 carries corpus[0] like chunk 0 does, but says "3".
    sink("s0", 0, chunks[3].payload)
    assert sink.corrupt == 1


def test_feed_interleaves_streams_and_cycles_the_corpus() -> None:
    corpus = _corpus()
    chunks = list(Feed(corpus, 7, STREAMS))
    assert [(c.stream_id, c.index) for c in chunks[:4]] == [
        ("s0", 0), ("s1", 0), ("s0", 1), ("s1", 1),
    ]
    assert [c.payload for c in chunks] == [corpus[j % 3] for j in range(7)]


@pytest.mark.parametrize("name", ["zlib", "null", "lz4"])
def test_codec_proxy_round_trips_bytes_unchanged(name: str) -> None:
    inner = resolve_codec(name)
    proxy = CodecProxy(inner)
    payload = TAG.pack(41) + _corpus()[0][TAG.size:]
    wire, codec_id = proxy.compress_with_id(payload)
    assert (wire, codec_id) == inner.compress_with_id(payload)
    assert proxy.decompress(wire) == payload
    assert set(proxy.compress_spans) == set(proxy.decompress_spans) == {41}
    start, end = proxy.compress_spans[41]
    assert end >= start


def test_ratio_band_rejects_the_air_margin_slice() -> None:
    # The first MiB of a paper-size projection compresses 228:1.
    sliced = Workload("sliced", "a slice, not a detector", "loop", "zlib", (512, 1024))
    assert not ratio_in_band(sliced, 228.0)
    assert ratio_in_band(WORKLOADS["proj_zlib"], 1.97)
    assert ratio_in_band(WORKLOADS["proj_null"], 1.0)


def test_serial_closure_is_measured_not_constructed() -> None:
    w = WORKLOADS["small_null"]
    corpus, _ = build_corpus(w, 7)
    serial = serial_pass(w, corpus, 32)
    assert serial.failed == 0
    # Each call has its own clock pair, so the loop's bookkeeping falls
    # between spans and closure reads below 1.
    assert 0.3 < serial.metrics["bench.serial_closure"] < 1.0
    assert serial.unaccounted_us > 0
    main_thread = sorted(serial.spans, key=lambda sp: sp["start"])
    assert all(
        a["end"] <= b["start"] for a, b in zip(main_thread, main_thread[1:])
    )
    assert any(
        a["end"] < b["start"] for a, b in zip(main_thread, main_thread[1:])
    )


def test_block_stat_spreads_one_pass_over_its_thirds() -> None:
    stat = block_stat([10.0, 12.0, 20.0, 22.0, 30.0, 32.0, 31.0])
    assert stat == {"value": 22.0, "min": 11.0, "max": 31.0, "n": 3}
