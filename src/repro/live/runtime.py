"""Run a live (real-thread) pipeline on this host.

:class:`LivePipeline` runs Figure 2 with actual OS threads::

    feeder -> [C x compress] -> sendq -> {S_i ==socketpair==> R_i} ->
    wireq -> [D x decompress] -> sink

One socketpair per send/receive pair models the paper's "x TCP
streams".  The chain itself is wired in :mod:`repro.live.assembly`;
this module holds the config, the report and the entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.compress.codec import Codec, CodecSpec, resolve_codec
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy, TimeoutPolicy
from repro.live import workers
from repro.live.assembly import Assembly
from repro.telemetry.facade import as_telemetry
from repro.util.errors import ValidationError


@dataclass
class LiveConfig:
    """Thread counts and codec for a live run."""

    #: Codec spec string: a registry name (``"zlib"``) or a
    #: parameterized spec (``"zlib:level=6"``) — see docs/compression.md.
    codec: str = "zlib"
    compress_threads: int = 2
    decompress_threads: int = 2
    connections: int = 1
    queue_capacity: int = 8
    #: Optional stage -> CPU list affinity hints (best-effort).
    affinity: dict[str, list[int]] = field(default_factory=dict)
    #: Fail the run if any chunk is missing or duplicated at the sink.
    verify: bool = True
    #: All timeout knobs in one place (see repro.faults.TimeoutPolicy).
    timeouts: TimeoutPolicy | None = None
    #: "thread" keeps today's in-process pipeline; "process" runs one
    #: compressor *process* per NUMA domain over shared-memory rings
    #: (see :mod:`repro.mp` and docs/multiprocess.md).
    execution_mode: str = "thread"
    #: Compressor domains in process mode (0 = one per compress thread
    #: the plan asked for).
    process_domains: int = 0
    #: Records each shared-memory ring buffers (per domain, per
    #: direction) — the process-mode analogue of ``queue_capacity``.
    ring_capacity: int = 8
    #: Slot size of each ring; must fit one packed chunk record.
    ring_slot_bytes: int = 1 << 20
    #: multiprocessing start method of the pooled compressor processes
    #: ("spawn" is the portable default; "fork" starts faster where it
    #: is safe).
    mp_start_method: str = "spawn"
    #: Reactor shards of a ReceiverServer lowered from this config
    #: (0 = auto: one per core the receiver's NUMA domain offers).
    receiver_shards: int = 0
    #: Flow-trace head sampling: every Nth chunk per stream gets a
    #: trace context at the feeder (0 = tracing off; requires
    #: telemetry to be attached to take effect).
    trace_sample: int = 0
    #: Max traces started per stream (0 = unbounded).
    trace_per_stream_cap: int = 0

    def __post_init__(self) -> None:
        for minimum, names in (
            (1, ("compress_threads", "decompress_threads", "connections",
                 "ring_capacity")),
            (0, ("process_domains", "receiver_shards",
                 "trace_sample", "trace_per_stream_cap")),
        ):
            for name in names:
                if getattr(self, name) < minimum:
                    raise ValidationError(f"{name} must be >= {minimum}")
        if self.execution_mode not in ("thread", "process"):
            raise ValidationError(
                f"execution_mode must be 'thread' or 'process', "
                f"not {self.execution_mode!r}"
            )
        if self.mp_start_method not in ("spawn", "fork"):
            raise ValidationError(
                f"mp_start_method must be 'spawn' or 'fork', "
                f"not {self.mp_start_method!r}"
            )
        self.timeouts = self.timeouts or TimeoutPolicy()


@dataclass
class LiveReport:
    """Outcome of one live pipeline run.

    Implements the shared result protocol
    (:class:`repro.core.results.RunResult`): ``ok``, ``summary()``,
    ``to_dict()``.
    """

    chunks: int
    bytes_in: int
    wire_bytes: int
    bytes_out: int
    elapsed: float
    stage_stats: dict[str, workers.StageStats]
    errors: list[str]
    #: Unified metrics/spans for the run (None when telemetry was off).
    telemetry: "object | None" = None

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def compression_ratio(self) -> float:
        return self.bytes_in / self.wire_bytes if self.wire_bytes else 1.0

    @property
    def goodput_MBps(self) -> float:
        return self.bytes_out / self.elapsed / 1e6 if self.elapsed > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"chunks={self.chunks} in={self.bytes_in / 1e6:.1f}MB "
            f"wire={self.wire_bytes / 1e6:.1f}MB out={self.bytes_out / 1e6:.1f}MB",
            f"ratio={self.compression_ratio:.2f} elapsed={self.elapsed:.2f}s "
            f"goodput={self.goodput_MBps:.1f} MB/s",
        ]
        for name, s in self.stage_stats.items():
            lines.append(
                f"  {name}: chunks={s.chunks} busy={s.busy_seconds:.2f}s"
            )
        if self.errors:
            lines.append("ERRORS: " + "; ".join(self.errors))
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "chunks": self.chunks,
            "bytes_in": self.bytes_in,
            "wire_bytes": self.wire_bytes,
            "bytes_out": self.bytes_out,
            "elapsed": self.elapsed,
            "compression_ratio": self.compression_ratio,
            "goodput_MBps": self.goodput_MBps,
            "stages": {
                name: {
                    "chunks": s.chunks,
                    "bytes_in": s.bytes_in,
                    "bytes_out": s.bytes_out,
                    "busy_seconds": s.busy_seconds,
                }
                for name, s in self.stage_stats.items()
            },
            "errors": list(self.errors),
        }


class LivePipeline:
    """Single-host pipeline over in-process socketpairs.

    ``config.execution_mode`` picks how the compress stage runs:
    ``"thread"`` keeps it in this process, ``"process"`` moves it into
    one compressor process per NUMA domain (:mod:`repro.mp`); everything
    downstream is the same either way (see :mod:`repro.live.assembly`).

    Pass a :class:`~repro.telemetry.Telemetry` to collect wall-clock
    spans, stage counters, queue-occupancy gauges and transport totals
    for the run; it is echoed back on the :class:`LiveReport`.
    """

    #: Restart policy for compressor processes (process mode only).
    retry: RetryPolicy | None = None

    def __init__(
        self,
        config: LiveConfig | None = None,
        codec: "Codec | CodecSpec | str | None" = None,
        *,
        telemetry: "bool | object" = False,
    ):
        self.config = config or LiveConfig()
        self.codec = resolve_codec(codec if codec is not None else self.config.codec)
        self.telemetry = as_telemetry(telemetry)

    def run(
        self,
        source: Iterable[Chunk],
        sink: Callable[[str, int, bytes | bytearray], None] | None = None,
        *,
        telemetry: "bool | object | None" = None,
    ) -> LiveReport:
        """Stream every chunk of ``source`` through the full pipeline.

        ``sink(stream_id, index, data)`` gets each chunk once.  ``data``
        is ``bytes`` or ``bytearray`` (an uncompressed payload is the
        buffer it was received into); the pipeline never writes to it
        after delivery, so the sink may keep it.

        ``telemetry`` follows the blessed shape (``docs/telemetry.md``):
        ``True`` builds a fresh :class:`~repro.telemetry.Telemetry`,
        an instance is shared, ``False`` disables collection for this
        run, and ``None`` (default) inherits the pipeline's own.
        """
        cfg = self.config
        tel = self.telemetry if telemetry is None else as_telemetry(telemetry)
        process = cfg.execution_mode == "process"
        asm = Assembly(
            cfg, self.codec, tel,
            runner="ProcessPipeline" if process else "LivePipeline",
        )
        if process:
            from repro.mp.pipeline import ProcessFront

            asm.external = ProcessFront(asm, source, self.retry)
        else:
            asm.front_threads(source)
        asm.link_pairs()
        asm.back(sink)
        asm.begin(
            f"{cfg.execution_mode} pipeline starting", codec=self.codec.name,
            mode=cfg.execution_mode, connections=cfg.connections,
            compress_threads=cfg.compress_threads,
            decompress_threads=cfg.decompress_threads,
        )
        errors = asm.execute()
        stats = asm.stats
        asm.end(
            f"{cfg.execution_mode} pipeline finished", errors,
            chunks=stats["decompress"].chunks,
        )
        return LiveReport(
            chunks=stats["decompress"].chunks,
            bytes_in=stats["feed"].bytes_in,
            wire_bytes=stats["send"].bytes_out,
            bytes_out=stats["decompress"].bytes_out,
            elapsed=asm.elapsed,
            stage_stats=stats,
            errors=errors,
            telemetry=tel,
        )
