"""The traced run: where the time of one workload goes, layer by layer.

Two parts, both made of spans recorded around public calls from this
file (none inside ``src/repro``):

*Part A, the interposed pass.*  The real pipeline runs once with a
tagged feed, a delegating :class:`CodecProxy` and the verifying sink in
place, which yields per-chunk compress / decompress spans by thread and
the waterfall ``wait_feed -> compress -> transit -> decompress -> sink``
that sums to each chunk's latency by construction.

*Part B, the serial pass.*  One thread pushes a few chunks through each
layer's public calls in pipeline order, one span per call, so a layer's
cost is seen with nothing else contending.

Layer names are the repo's modules.  A metric of a layer that is not on
a workload's path reads 0.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, NamedTuple

from repro.compress.codec import Codec, decompressor_for, resolve_codec
from repro.live.queues import ClosableQueue
from repro.live.transport import Frame, encode_frame_header, socket_pipe
from repro.mp.records import ChunkRecord, pack_record, unpack_record
from repro.mp.ring import SharedRing
from repro.telemetry import Telemetry

from perfbench.harness import TAG, Pass, VerifyingSink, live_pass
from perfbench.workloads import Workload

_clock = time.perf_counter

#: Per-chunk waterfall rows kept for ``--out``.
_SPAN_ROWS = 256


class CodecProxy(Codec):
    """Delegates to ``inner`` and times every call, per chunk.

    Static codecs stamp wire id 0, so the receive side decompresses with
    the *configured* codec — this proxy — and both directions are seen.
    The chunk ordinal is read from the tag in the uncompressed bytes.
    """

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.name = inner.name
        #: ordinal -> (start, end) of the call that handled it.
        self.compress_spans: dict[int, tuple[float, float]] = {}
        self.decompress_spans: dict[int, tuple[float, float]] = {}

    def compress(self, data: bytes) -> bytes:
        return self.compress_with_id(data)[0]

    def compress_with_id(self, data: bytes) -> tuple[bytes, int]:
        t0 = _clock()
        out = self.inner.compress_with_id(data)
        self.compress_spans[TAG.unpack_from(data)[0]] = (t0, _clock())
        return out

    def decompress(self, data: bytes) -> bytes:
        t0 = _clock()
        out = self.inner.decompress(data)
        self.decompress_spans[TAG.unpack_from(out)[0]] = (t0, _clock())
        return out


class _EventCount:
    """Stands in for an event bus: counts events by kind."""

    def __init__(self) -> None:
        self.kinds: dict[str, int] = {}

    def emit(self, kind: str, message: str = "", **fields: Any) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0) + 1


def interposed_pass(
    w: Workload, corpus: list[bytes], n: int
) -> tuple[Pass, dict[str, float], list[dict[str, float]]]:
    """Part A: one pass of the real pipeline with the probes in place."""
    proxy = None if w.kind == "mp" else CodecProxy(resolve_codec(w.codec))
    # mp: the codec crosses to the workers as a spec string, so there is
    # no proxy; its telemetry only carries the restart events.  tcp: the
    # resilience ledger lives on the endpoints' telemetry counters.
    tel = Telemetry() if w.kind in ("mp", "tcp") else None
    events = _EventCount()
    if tel is not None:
        tel.attach_events(events)
    p = live_pass(
        w, corpus, n, codec=proxy,
        telemetry=tel if tel is not None else False,
        tagged=proxy is not None,
    )
    window = p.window_s
    m: dict[str, float] = {
        "live.workers.feed.blocked_share": p.feed.blocked / window,
    }

    busy = _stage_busy(w, p, tel)
    for stage, count in p.threads.items():
        m[f"live.workers.{stage}.busy_share"] = (
            busy.get(stage, 0.0) / (window * count)
        )

    rows: list[dict[str, float]] = []
    if proxy is not None:
        comp, dec = proxy.compress_spans, proxy.decompress_spans
        m["compress.parallelism"] = sum(b - a for a, b in comp.values()) / window
        m["compress.decompress_parallelism"] = (
            sum(b - a for a, b in dec.values()) / window
        )
        for j in range(n):
            if j not in comp or j not in dec or not p.sink.verified[j]:
                continue
            (c0, c1), (d0, d1) = comp[j], dec[j]
            rows.append({
                "chunk": j,
                "wait_feed_ms": (c0 - p.feed.pulled[j]) * 1e3,
                "compress_ms": (c1 - c0) * 1e3,
                "transit_ms": (d0 - c1) * 1e3,
                "decompress_ms": (d1 - d0) * 1e3,
                "sink_ms": (p.sink.verified[j] - d1) * 1e3,
            })
        for seg in ("wait_feed", "compress", "transit", "decompress", "sink"):
            m[f"waterfall.{seg}_ms"] = (
                statistics.fmean(r[f"{seg}_ms"] for r in rows) if rows else 0.0
            )
        m["live.workers.transit_ms_p50"] = (
            statistics.median(r["transit_ms"] for r in rows) if rows else 0.0
        )
    else:
        m["compress.parallelism"] = busy.get("compress", 0.0) / window
        m["compress.decompress_parallelism"] = (
            busy.get("decompress", 0.0) / window
        )

    if w.kind == "tcp":
        m["live.remote.connect_ms"] = p.startup_s * 1e3
        m["live.remote.drain_ms"] = p.drain_s * 1e3
        for key, counter in (
            ("retries", "transport_retries_total"),
            ("redeliveries", "transport_redeliveries_total"),
            ("rejected", "transport_frames_rejected_total"),
            ("deduped", "transport_frames_deduped_total"),
        ):
            m[f"live.remote.{key}"] = tel.counter_value(counter)
        m["live.eventloop.deferrals"] = sum(
            tel.counter_value("repro_receiver_deferred_total", stream=sid)
            for sid in w.streams
        )
    else:
        m["live.runtime.startup_ms"] = p.startup_s * 1e3
        m["live.runtime.drain_ms"] = p.drain_s * 1e3
    if w.kind == "mp":
        # Process start is asynchronous, so the first pull does not wait
        # for it; the first delivery does (spawn + import + one chunk).
        m["mp.pipeline.spawn_ms"] = p.first_delivery_s * 1e3
        m["mp.pipeline.compress_busy_share"] = m[
            "live.workers.compress.busy_share"
        ]
        m["mp.pipeline.restarts"] = float(events.kinds.get("worker_restart", 0))
    return p, m, rows[:_SPAN_ROWS]


def _stage_busy(w: Workload, p: Pass, tel: Telemetry | None) -> dict[str, float]:
    """Busy seconds per stage, as the program itself accounts them.

    ``recv`` includes time blocked on the socket, so it reads near 1
    whenever the stream is flowing; it never names the binding stage.
    """
    if w.kind == "tcp":
        # EndpointReport carries no stage stats; the endpoints' spans do.
        stages = tel.pipeline_report().stages
        return {name: agg.busy_seconds for name, agg in stages.items()}
    return {
        name: s.busy_seconds for name, s in p.reports[0].stage_stats.items()
    }


def binding_stage(metrics: dict[str, float]) -> str:
    """The stage busy while those before it are blocked.

    ``feed`` (whose busy time is the blocked put) and ``recv`` (whose
    busy time includes socket wait) cannot bind by this accounting.
    """
    shares = {
        stage: metrics.get(f"live.workers.{stage}.busy_share", 0.0)
        for stage in ("compress", "send", "decompress")
    }
    return max(shares, key=lambda s: shares[s])


class Serial(NamedTuple):
    """What the serial pass found."""

    metrics: dict[str, float]
    #: Every timed call as ``{layer, chunk, start, end}``.
    spans: list[dict[str, Any]]
    #: Chunks that failed the sink comparison.
    failed: int
    #: Loop wall time per chunk that no span accounts for.
    unaccounted_us: float


def serial_pass(w: Workload, corpus: list[bytes], n: int) -> Serial:
    """Part B: ``n`` chunks through each layer's public calls, one
    thread, pipeline order.

    Every call is timed on its own, clock read to clock read around
    just that call; what the loop spends between calls (building the
    arguments, keeping the spans) belongs to no layer, and
    ``bench.serial_closure`` is the share of the loop's wall time the
    spans do account for.
    """
    codec = resolve_codec(w.codec)
    # Default-kwargs twin of the configured codec, as a frame stamped
    # with a wire id would select on the receive side.
    decoder = decompressor_for(type(codec).wire_id)
    sink = VerifyingSink(corpus, n, w.streams)
    queue = ClosableQueue(8, name="serial")
    tx, rx = socket_pipe()
    ring = (
        SharedRing.create(capacity=8, slot_bytes=1 << 20)
        if w.kind == "mp" else None
    )
    handed: list[tuple[Frame | None, float]] = []
    arrived = threading.Semaphore(0)

    def drain() -> None:
        while True:
            frame = rx.recv()
            handed.append((frame, _clock()))
            arrived.release()
            if frame is None:
                return

    drainer = threading.Thread(target=drain, name="perfbench-drain")
    drainer.start()
    #: (layer, chunk, start, end) of every timed call.
    spans: list[tuple[str, int, float, float]] = []
    transfer = wire_overhead = ratio_in = ratio_out = 0.0

    def timed(layer: str, chunk: int, call: Any, *args: Any, **kwargs: Any) -> Any:
        t0 = _clock()
        out = call(*args, **kwargs)
        spans.append((layer, chunk, t0, _clock()))
        return out

    try:
        begin = _clock()
        for j in range(n):
            payload = corpus[j % len(corpus)]
            sid, index = w.streams[j % len(w.streams)], j // len(w.streams)
            if ring is not None:
                record = ChunkRecord(sid, index, payload, False, len(payload))
                packed = timed("mp.records.pack", j, pack_record, record)
                timed("mp.ring.put", j, ring.put, packed)
                raw = timed("mp.ring.get", j, ring.get)
                payload = timed("mp.records.unpack", j, unpack_record, raw).payload
            wire, codec_id = timed(
                "compress.compress", j, codec.compress_with_id, payload
            )
            timed("live.queues.handoff", j, queue.put, wire)
            wire = timed("live.queues.handoff", j, queue.get)
            frame = timed(
                "live.transport.encode", j, Frame, sid, index, wire,
                compressed=True, orig_len=len(payload), codec_id=codec_id,
            )
            header = timed("live.transport.encode", j, encode_frame_header, frame)
            timed("live.transport.send", j, tx.send, frame)
            send_entered = spans[-1][2]
            # The drain thread is inside ``rx.recv()`` meanwhile; only
            # the tail after ``send()`` returned is serial.
            if not timed("live.transport.recv_tail", j, arrived.acquire, timeout=60):
                raise RuntimeError(f"serial pass: frame {j} never arrived")
            got, at = handed[j]
            # The receiver's view of the transfer: send() entered ->
            # frame parsed, checksummed and copied out.
            transfer += at - send_entered
            data = timed("compress.decompress", j, decoder.decompress, got.payload)
            timed("sink", j, sink, got.stream_id, got.index, data)
            wire_overhead += len(header)
            ratio_in += len(payload)
            ratio_out += len(wire)
        wall = _clock() - begin
    finally:
        tx.close()
        drainer.join()
        rx.close()
        if ring is not None:
            ring.close()
            ring.unlink()

    spent: dict[str, float] = {}
    for layer, _, t0, t1 in spans:
        spent[layer] = spent.get(layer, 0.0) + (t1 - t0)

    def per_chunk_ms(layer: str) -> float:
        return spent[layer] / n * 1e3

    m = {
        "compress.compress_ms": per_chunk_ms("compress.compress"),
        "compress.decompress_ms": per_chunk_ms("compress.decompress"),
        "compress.ratio": ratio_in / ratio_out,
        # One put and one get.
        "live.queues.handoff_us": per_chunk_ms("live.queues.handoff") * 1e3,
        # Building the Frame and encoding its header (checksum included).
        "live.transport.encode_ms": per_chunk_ms("live.transport.encode"),
        "live.transport.send_ms": per_chunk_ms("live.transport.send"),
        "live.transport.recv_ms": transfer / n * 1e3,
        "live.transport.wire_overhead_B": wire_overhead / n,
        "bench.serial_closure": sum(spent.values()) / wall,
    }
    if ring is not None:
        m["mp.records.pack_ms"] = per_chunk_ms("mp.records.pack")
        m["mp.records.unpack_ms"] = per_chunk_ms("mp.records.unpack")
        m["mp.ring.put_ms"] = per_chunk_ms("mp.ring.put")
        m["mp.ring.get_ms"] = per_chunk_ms("mp.ring.get")
    rows = [
        {"layer": layer, "chunk": j, "start": t0, "end": t1}
        for layer, j, t0, t1 in spans
    ]
    return Serial(m, rows, sink.failed, (wall - sum(spent.values())) / n * 1e6)


def paced_diagnostics(p: Pass) -> dict[str, float]:
    """Tail, generator lateness and drift of one open-loop pass.

    p90 is the highest percentile a pass of ~50 chunks supports (5
    samples beyond it); it is reported, not gated.  Drift compares the
    last third of the run with the first: above 1.25 the backlog was
    growing, i.e. the offered rate was not sustainable.
    """
    lat = p.latencies_ms
    third = max(1, len(lat) // 3)
    return {
        "paced.latency_p90_ms": _p90(lat),
        "bench.sched_lag_p90_ms": _p90([x * 1e3 for x in p.feed.lag]),
        "paced.latency_drift": (
            statistics.median(lat[-third:]) / statistics.median(lat[:third])
        ),
    }


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
