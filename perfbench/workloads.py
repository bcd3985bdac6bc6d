"""The seven workloads and the corpus each one streams.

A workload is a fixed amount of work: its chunk count per timed repeat
is a constant scaled only by ``--seconds`` (one recorded factor), so
every commit pushes the same bytes through the same pipeline and a
faster commit simply finishes sooner.  The counts below are sized so a
repeat takes about ``seconds / REPEATS`` on the 2-core reference box.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.spheres import PAPER_DETECTOR_SHAPE, SpheresDataset

#: ``--seconds`` at which the chunk counts below apply unscaled.
REFERENCE_SECONDS = 10.0
#: Back-to-back timed repeats per saturated workload; the reported
#: value is their median.
REPEATS = 3
#: Offered rate of the open-loop workload, chunks/s (55 MB/s, about
#: two thirds of ``proj_zlib`` saturation on the reference box).
PACED_RATE = 5.0
#: Accepted compression ratio of a spheres chunk under zlib / lz4: a
#: corpus outside it is not the paper's ~2:1 data (see README,
#: "corpus pitfalls").
RATIO_BAND = (1.6, 2.4)
#: Timed fig14 pairs per sim run.  One pair's cost moves ~10 % with the
#: scenario seed and ~8 % from pair to pair on one seed (the engine's
#: work depends on object addresses), so the run pools several seeds
#: derived from ``--seed``; the last pair repeats the first seed and must
#: reproduce it bit for bit.
SIM_PAIRS = 7
#: Accepted runtime-over-OS ratio (the paper's 1.48x), averaged over the
#: run's seeds.  Tier-1 holds the 250-chunk experiment to [1.25, 1.75];
#: 36-chunk pairs read 1.19 .. 1.58 one at a time (mean 1.36 over 12
#: seeds), and a benchmark run must not fail on the seed it was handed.
SPEEDUP_BAND = (1.10, 1.90)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line, also written to BENCHMARK.json.
    why: str
    #: Which assembly carries the chunks: ``loop`` (LivePipeline over a
    #: socketpair), ``tcp`` (SenderClient -> ReceiverServer), ``mp``
    #: (ProcessPipeline), ``paced`` (loop, open loop) or ``sim``.
    kind: str
    codec: str = "null"
    #: Spheres detector shape; ``None`` is the 2 KiB seeded-random payload.
    shape: tuple[int, int] | None = None
    #: Distinct payloads in the corpus, cycled by chunk ordinal.
    distinct: int = 1
    streams: tuple[str, ...] = ("s0",)
    #: Chunks per timed repeat at ``REFERENCE_SECONDS``.
    chunks: int = 0
    #: Fewest chunks a repeat may shrink to under a small ``--seconds``.
    min_chunks: int = 2
    #: Chunks pushed through the serial layer pass of the traced run.
    serial_chunks: int = 8

    def chunks_for(self, seconds: float) -> int:
        scaled = round(self.chunks * seconds / REFERENCE_SECONDS)
        return max(self.min_chunks, scaled)

    def serial_chunks_for(self, seconds: float) -> int:
        scale = min(1.0, seconds / REFERENCE_SECONDS)
        return max(2, round(self.serial_chunks * scale))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "proj_zlib",
            "The headline: the paper's 11.0592 MB projection at its ~2:1 "
            "ratio through zlib; the codec does most of the work, "
            "transport little.",
            "loop", "zlib", PAPER_DETECTOR_SHAPE, 2, chunks=25,
        ),
        Workload(
            "proj_null",
            "Same chunks with the codec removed: per-byte transport cost "
            "(crc32, sendmsg, receive copy, queue handoffs of 11 MB "
            "objects); a codec change must show nothing here.",
            "loop", "null", PAPER_DETECTOR_SHAPE, 2, chunks=250,
        ),
        Workload(
            "small_null",
            "2 KiB payloads: per-message cost (header encode, a lock "
            "round-trip per handoff, a syscall per frame) where bytes "
            "do not dilute added handling.",
            "loop", "null", None, 1, chunks=20000, min_chunks=200,
            serial_chunks=64,
        ),
        Workload(
            "tcp_null_1m",
            "1 MiB chunks on two streams over loopback TCP into the "
            "event-loop receiver: reactor shards, ACK frames, dedup and "
            "fair-share budget, the plane deployments use.",
            "tcp", "null", (512, 1024), 8, ("s0", "s1"), chunks=1650,
            min_chunks=16, serial_chunks=32,
        ),
        Workload(
            "mp_lz4",
            "256 KiB chunks through pure-Python LZ4 in two compressor "
            "processes: SharedRing, pack_record and the supervisor carry "
            "the load; transport is idle.",
            "mp", "lz4", (256, 512), 4, chunks=60, min_chunks=4,
            serial_chunks=16,
        ),
        Workload(
            "proj_zlib_paced",
            "proj_zlib inputs offered open-loop at 5 chunks/s: latency "
            "from each chunk's due time, which rises before goodput "
            "falls, so queueing regressions show here first.",
            "paced", "zlib", PAPER_DETECTOR_SHAPE, 2,
            chunks=round(PACED_RATE * REFERENCE_SECONDS), min_chunks=6,
        ),
        Workload(
            "sim_fig14",
            "fig14 scenario pairs (runtime vs OS placement) on the "
            "pure-Python event simulator: live work must not move it, sim "
            "work shows only here. Its goodput and latency rows are one "
            "measurement in two units.",
            "sim", chunks=36, min_chunks=24,
        ),
    )
}


def build_corpus(w: Workload, seed: int) -> tuple[list[bytes], list[float]]:
    """The workload's distinct payloads and what each took to render (ms).

    Small spheres chunks come from a *smaller detector*, never from a
    slice of the paper-size projection: the first MiB of a 2304x2400
    frame is saturated air margin and compresses 228:1.
    """
    if w.shape is None:
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 256, 2048, dtype=np.uint8).tobytes()], []
    dataset = SpheresDataset(detector_shape=w.shape, seed=seed)
    corpus, render_ms = [], []
    for i in range(w.distinct):
        t0 = time.perf_counter()
        corpus.append(dataset.chunk_payload(i))
        render_ms.append((time.perf_counter() - t0) * 1e3)
    return corpus, render_ms


def ratio_in_band(w: Workload, ratio: float) -> bool:
    """Corpus self-check: spheres chunks compress like the paper's."""
    if w.shape is None or w.codec == "null":
        return True
    return RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
