"""Stage-attributed sampling profiler for the live pipeline.

``sys._current_frames()`` snapshots every thread's Python stack without
instrumenting the code under test; sampled at a fixed rate it yields a
statistical profile whose cost is bounded by the rate, not by the
workload.  The twist here is *stage attribution*: live pipeline threads
are named after their Figure-2 stage (``compress-0``, ``send-1``,
``feeder``...), so each sample is charged to a pipeline stage and the
profile answers the paper's question — *where does the time actually
go?* — in the same vocabulary as the telemetry report.

Outputs:

- :meth:`SamplingProfiler.stage_self_seconds` — estimated busy seconds
  per stage, merged into :class:`~repro.telemetry.report.PipelineReport`
  by the observability server (``/report``) and the CLI;
- :meth:`SamplingProfiler.collapsed` — collapsed-stack text
  (``stage;frame;frame count`` per line), the input format of
  ``flamegraph.pl`` and https://www.speedscope.app.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from types import FrameType
from typing import Any

#: thread-name prefix -> canonical pipeline stage.
_STAGE_BY_PREFIX: dict[str, str] = {
    "feeder": "feed",
    "feed": "feed",
    "dispatcher": "feed",
    "compress": "compress",
    "send": "send",
    "sender": "send",
    "recv": "recv",
    "receiver": "recv",
    "decompress": "decompress",
    "wire": "send",
    "collector": "compress",
}


def stage_for_thread_name(name: str) -> str:
    """Map a worker thread name to its pipeline stage (else ``other``).

    ``compress-3`` → ``compress``, ``feeder`` → ``feed``, and composite
    names resolve by token — the simulator's dotted process names
    (``s0.compress.1`` → ``compress``) and the process pipeline's
    prefixed workers (``mp-compress-0`` → ``compress``, ``collector-1``
    → ``compress``) — the watchdog names a stalled worker's stage by
    this.  Anything the pipeline didn't spawn (main thread, HTTP
    server threads) lands in ``other`` so the profile still accounts
    for 100% of samples.
    """
    prefix = name.split("-", 1)[0].strip().lower()
    stage = _STAGE_BY_PREFIX.get(prefix)
    if stage is not None:
        return stage
    for token in name.strip().lower().replace("-", ".").split("."):
        if token in _STAGE_BY_PREFIX:
            return _STAGE_BY_PREFIX[token]
    return "other"


def _collapse(frame: FrameType | None, limit: int = 48) -> tuple[str, ...]:
    """Root-to-leaf frame labels, ``file:function`` per frame."""
    parts: list[str] = []
    f = frame
    while f is not None and len(parts) < limit:
        code = f.f_code
        parts.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        f = f.f_back
    parts.reverse()
    return tuple(parts)


class SamplingProfiler:
    """Samples every thread's stack at ``hz`` and attributes by stage.

    Start/stop around the run (both are idempotent); query afterwards —
    or live, all accessors are thread-safe.  Self-time estimates scale
    each stage's sample count by the *measured* wall time per sampling
    round, so a sampler that can't keep its nominal rate (GIL pressure)
    still reports honest seconds.
    """

    def __init__(self, hz: float = 100.0) -> None:
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = hz
        self._interval = 1.0 / hz
        self._lock = threading.Lock()
        self._stacks: Counter[tuple[str, ...]] = Counter()
        self._stage_samples: Counter[str] = Counter()
        self._samples = 0
        self._rounds = 0
        self._elapsed = 0.0
        self._started_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample_once()

    # -- sampling --------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every thread; returns threads sampled.

        Public so tests (and the simulator, which has no real worker
        threads to watch) can drive the profiler deterministically.
        """
        me = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        sampled = 0
        with self._lock:
            self._rounds += 1
            for ident, frame in frames.items():
                if ident == me:
                    continue
                name = names.get(ident, f"thread-{ident}")
                if name == "obs-profiler":
                    continue
                stage = stage_for_thread_name(name)
                self._stacks[(stage, *_collapse(frame))] += 1
                self._stage_samples[stage] += 1
                self._samples += 1
                sampled += 1
        return sampled

    # -- results ---------------------------------------------------------

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    @property
    def rounds(self) -> int:
        with self._lock:
            return self._rounds

    @property
    def elapsed(self) -> float:
        """Wall seconds the sampler has been running."""
        extra = 0.0
        if self._started_at is not None:
            extra = time.perf_counter() - self._started_at
        return self._elapsed + extra

    def _seconds_per_sample(self) -> float:
        rounds = self._rounds
        if rounds == 0:
            return 0.0
        return self.elapsed / rounds

    def stage_self_seconds(self) -> dict[str, float]:
        """Estimated busy seconds per stage (sample count × round time)."""
        with self._lock:
            per = self._seconds_per_sample()
            return {
                stage: count * per
                for stage, count in sorted(self._stage_samples.items())
            }

    def collapsed(self, *, limit: int | None = None) -> str:
        """Collapsed-stack text: ``stage;frame;... count`` per line."""
        with self._lock:
            ranked = self._stacks.most_common(limit)
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in ranked)

    def to_dict(self, *, top: int = 50) -> dict[str, Any]:
        """JSON shape served under ``/report``'s ``profile`` key."""
        with self._lock:
            per = self._seconds_per_sample()
            stages = {
                stage: round(count * per, 6)
                for stage, count in sorted(self._stage_samples.items())
            }
            hottest = [
                {"stack": list(stack), "samples": count}
                for stack, count in self._stacks.most_common(top)
            ]
            return {
                "hz": self.hz,
                "samples": self._samples,
                "rounds": self._rounds,
                "elapsed_s": round(self.elapsed, 6),
                "stage_self_seconds": stages,
                "hottest": hottest,
            }

    def render(self) -> str:
        """Human-readable per-stage self-time table (CLI ``--profile``)."""
        stages = self.stage_self_seconds()
        total = sum(stages.values()) or 1.0
        lines = [
            f"sampling profile: {self.samples} samples over "
            f"{self.elapsed:.2f}s at {self.hz:g} Hz",
            f"  {'stage':<12} {'self(s)':>8} {'share':>6}",
        ]
        for stage, seconds in sorted(
            stages.items(), key=lambda kv: kv[1], reverse=True
        ):
            lines.append(
                f"  {stage:<12} {seconds:>8.2f} {seconds / total:>6.1%}"
            )
        return "\n".join(lines)
