"""Load generation, verification and one pass of each pipeline assembly.

Everything here watches the program from outside: a source iterator
that stamps each chunk as it is pulled, a sink that checks every
delivered chunk byte for byte, and clocks around the public ``run`` /
``serve`` calls.  Nothing is added inside ``src/repro``.
"""

from __future__ import annotations

import os
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.compress.codec import Codec
from repro.core.runtime import run_scenario
from repro.data.chunking import Chunk
from repro.experiments.fig14 import multi_stream_scenario
from repro.live.remote import ReceiverServer, SenderClient
from repro.live.runtime import LiveConfig, LivePipeline
from repro.mp.pipeline import ProcessPipeline

from perfbench.workloads import PACED_RATE, Workload

#: Chunk ordinal carried in the first bytes of a tagged payload, so the
#: codec proxy (which sees only bytes) can tell which chunk it holds.
TAG = struct.Struct("<Q")

_clock = time.perf_counter


def cpu_seconds() -> float:
    """CPU consumed so far by this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Feed:
    """The single source iterator: chunk ``j`` of ``n``, stamped.

    Closed loop by default: ``pulled[j]`` is when the pipeline asked
    for the chunk.  With ``rate`` the feed is open loop: it sleeps to
    each chunk's due time, stamps the *due* time (so a stalled pipeline
    is charged for the wait it imposes on later chunks) and records how
    late the generator itself ran in ``lag``.

    Ordinals interleave the streams: chunk ``j`` is index ``j // S`` of
    stream ``j % S`` and carries payload ``corpus[j % K]``.
    """

    def __init__(
        self,
        corpus: list[bytes],
        n: int,
        streams: tuple[str, ...] = ("s0",),
        *,
        rate: float | None = None,
        tagged: bool = False,
    ) -> None:
        self.corpus = corpus
        self.n = n
        self.streams = streams
        self.rate = rate
        self.tagged = tagged
        self.pulled = [0.0] * n
        self.lag: list[float] = []
        self._tails = [memoryview(p)[TAG.size:] for p in corpus]
        #: Seconds the consumer kept the generator suspended between a
        #: yield and the next pull — back-pressure on the feeder.
        self.blocked = 0.0

    def __iter__(self) -> Iterator[Chunk]:
        corpus, streams = self.corpus, self.streams
        k, s = len(corpus), len(streams)
        start = yielded = _clock()
        for j in range(self.n):
            now = _clock()
            if j:
                self.blocked += now - yielded
            if self.rate:
                due = start + j / self.rate
                if now < due:
                    time.sleep(due - now)
                self.lag.append(_clock() - due)
                now = due
            self.pulled[j] = now
            payload = corpus[j % k]
            if self.tagged:
                # One copy; slicing then concatenating would make two.
                payload = b"".join((TAG.pack(j), self._tails[j % k]))
            yielded = _clock()
            yield Chunk(streams[j % s], j // s, len(payload), payload=payload)


class VerifyingSink:
    """Checks every delivered chunk and tallies exactly-once.

    Byte identity is ``data == corpus[j % K]`` (a memcmp, cheaper than
    any checksum).  A chunk fails when it is missing, delivered more
    than once, not byte-identical, or not one the feed ever produced.
    """

    def __init__(
        self,
        corpus: list[bytes],
        n: int,
        streams: tuple[str, ...] = ("s0",),
        *,
        tagged: bool = False,
    ) -> None:
        self.corpus = corpus
        self.n = n
        self._slot = {sid: i for i, sid in enumerate(streams)}
        self.tagged = tagged
        self._tails = [memoryview(p)[TAG.size:] for p in corpus]
        self.verified = [0.0] * n
        self.counts = [0] * n
        self.corrupt = 0
        self.unknown = 0
        self.good_bytes = 0
        self.last = 0.0
        self._lock = threading.Lock()

    def __call__(self, stream_id: str, index: int, data: bytes) -> None:
        slot = self._slot.get(stream_id)
        j = -1 if slot is None else index * len(self._slot) + slot
        if not 0 <= j < self.n:
            with self._lock:
                self.unknown += 1
            return
        k = j % len(self.corpus)
        if self.tagged:
            # endswith is a memcmp; comparing memoryviews is not.
            ok = (
                len(data) == len(self.corpus[k])
                and TAG.unpack_from(data)[0] == j
                and data.endswith(self._tails[k])
            )
        else:
            ok = data == self.corpus[k]
        now = _clock()
        with self._lock:
            self.counts[j] += 1
            if ok:
                self.good_bytes += len(data)
            else:
                self.corrupt += 1
            self.verified[j] = now
            self.last = max(self.last, now)

    @property
    def failed(self) -> int:
        """Chunks missing, duplicated, corrupt or unknown."""
        off_count = sum(1 for c in self.counts if c != 1)
        return off_count + self.corrupt + self.unknown


@dataclass
class Pass:
    """One pass of ``chunks`` chunks through a live assembly."""

    chunks: int
    failed: int
    payload_bytes: int
    #: First chunk pulled from the source -> last chunk verified.
    window_s: float
    #: Process + children CPU across the whole ``run()`` call.
    cpu_s: float
    #: ``run()`` entered -> first chunk pulled.
    startup_s: float
    #: ``run()`` entered -> first chunk verified.
    first_delivery_s: float
    #: Last chunk verified -> every ``run()`` / ``serve()`` returned.
    drain_s: float
    latencies_ms: list[float]
    errors: list[str]
    feed: Feed
    sink: VerifyingSink
    #: ``LiveReport`` (loop, paced, mp) or the two ``EndpointReport``s.
    reports: list[Any] = field(default_factory=list)
    #: Threads (or compressor processes, or reactor shards) per stage,
    #: as the assembly that ran was sized.
    threads: dict[str, int] = field(default_factory=dict)

    @property
    def goodput_MBps(self) -> float:
        return self.payload_bytes / self.window_s / 1e6

    @property
    def cpu_s_per_GB(self) -> float:
        return self.cpu_s / (self.payload_bytes / 1e9)


def live_pass(
    w: Workload,
    corpus: list[bytes],
    n: int,
    *,
    codec: Codec | None = None,
    telemetry: "bool | object" = False,
    tagged: bool = False,
    paced: bool | None = None,
) -> Pass:
    """Push ``n`` chunks through the workload's assembly, all verified.

    Sizing is the pipeline's own default (``LiveConfig()``: 2 compress,
    2 decompress, 1 connection); only ``tcp`` uses 2 connections.
    ``codec`` substitutes a delegating proxy for the traced run;
    ``paced`` overrides the workload's loop kind (the warm-up of the
    paced workload runs closed).
    """
    if paced is None:
        paced = w.kind == "paced"
    feed = Feed(
        corpus, n, w.streams, rate=PACED_RATE if paced else None, tagged=tagged
    )
    sink = VerifyingSink(corpus, n, w.streams, tagged=tagged)
    use = codec if codec is not None else w.codec
    cpu0, t0 = cpu_seconds(), _clock()
    if w.kind == "tcp":
        reports, threads = _run_tcp(use, feed, sink, telemetry)
    else:
        if w.kind == "mp":
            cfg = LiveConfig(
                codec=w.codec, execution_mode="process", process_domains=2,
                mp_start_method="spawn",
            )
            reports = [ProcessPipeline(cfg, telemetry=telemetry).run(feed, sink)]
            compressors = cfg.process_domains
        else:
            cfg = LiveConfig(codec=w.codec)
            pipe = LivePipeline(cfg, codec=use)
            reports = [pipe.run(feed, sink, telemetry=telemetry)]
            compressors = cfg.compress_threads
        threads = {
            "feed": 1, "compress": compressors, "send": cfg.connections,
            "recv": cfg.connections, "decompress": cfg.decompress_threads,
        }
    t1, cpu1 = _clock(), cpu_seconds()
    first = feed.pulled[0]
    return Pass(
        chunks=n,
        failed=sink.failed,
        payload_bytes=sink.good_bytes,
        window_s=sink.last - first,
        cpu_s=cpu1 - cpu0,
        startup_s=first - t0,
        first_delivery_s=min((v for v in sink.verified if v), default=t1) - t0,
        drain_s=t1 - sink.last,
        latencies_ms=[
            (v - p) * 1e3 for v, p in zip(sink.verified, feed.pulled) if v
        ],
        errors=[e for r in reports for e in r.errors],
        feed=feed,
        sink=sink,
        reports=reports,
        threads=threads,
    )


def _run_tcp(
    codec: "Codec | str", feed: Feed, sink: VerifyingSink,
    telemetry: "bool | object",
) -> tuple[list[Any], dict[str, int]]:
    """Sender and receiver endpoints in one process over 127.0.0.1.

    Returns their reports and the stage widths they were built with.
    """
    served: list[Any] = []
    with ReceiverServer(
        codec=codec, connections=2, mode="eventloop", telemetry=telemetry
    ) as server:
        host, port = server.address
        client = SenderClient(
            host, port, codec=codec, connections=2, telemetry=telemetry
        )
        thread = threading.Thread(
            target=lambda: served.append(server.serve(sink)),
            name="perfbench-serve",
        )
        thread.start()
        try:
            sent = client.run(feed)
        finally:
            thread.join()
        threads = {
            "feed": 1, "compress": client.compress_threads,
            "send": client.connections, "recv": server.shards,
            "decompress": server.decompress_threads,
        }
    return [sent, *served], threads


@dataclass
class SimPass:
    """One fig14 scenario pair: runtime placement, then OS placement."""

    chunks: int
    payload_bytes: int
    build_s: float
    run_s: float
    cpu_s: float
    #: Simulated seconds covered by the pair.
    sim_s: float
    #: Delivered Gbps under runtime placement and under OS placement.
    delivered_gbps: tuple[float, float]
    ok: bool

    @property
    def wall_s(self) -> float:
        return self.build_s + self.run_s


def sim_pass(seed: int, num_chunks: int) -> SimPass:
    cpu0, t0 = cpu_seconds(), _clock()
    pair = [
        multi_stream_scenario(
            runtime_placement=placed, seed=seed, num_chunks=num_chunks
        )
        for placed in (True, False)
    ]
    t1 = _clock()
    runtime, baseline = (run_scenario(s) for s in pair)
    t2, cpu1 = _clock(), cpu_seconds()
    delivered = sum(
        s.chunks_delivered
        for r in (runtime, baseline)
        for s in r.streams.values()
    )
    planned = sum(s.num_chunks for scenario in pair for s in scenario.streams)
    chunk_bytes = pair[0].streams[0].chunk_bytes
    return SimPass(
        chunks=planned,
        payload_bytes=planned * chunk_bytes,
        build_s=t1 - t0,
        run_s=t2 - t1,
        cpu_s=cpu1 - cpu0,
        sim_s=runtime.sim_time + baseline.sim_time,
        delivered_gbps=(
            runtime.total_delivered_gbps, baseline.total_delivered_gbps
        ),
        ok=runtime.ok and baseline.ok and delivered == planned,
    )
