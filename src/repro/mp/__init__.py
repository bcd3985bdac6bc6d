"""repro.mp — the process-per-NUMA-domain live runtime.

The live thread pipeline (:mod:`repro.live.runtime`) can pin threads,
but one CPython process serializes every pure-Python compressor on the
GIL — the paper's central claim (parallel compression placed per NUMA
domain) can only be *simulated* from inside it.  This package makes it
physical:

- :class:`~repro.mp.ring.SharedRing` — a fixed-slot ring buffer over
  ``multiprocessing.shared_memory`` with a sequence-counter header:
  zero-copy (no pickling) inter-stage frame handoff with backpressure,
  batched ``put_many``/``get_many``, and the same close/drain protocol
  as :class:`~repro.live.queues.ClosableQueue`;
- :mod:`~repro.mp.records` — a ring slot: the chunk's wire
  :class:`~repro.live.transport.Frame` (its one record from compress to
  decompress on every plane) plus the compress stamp, which a worker
  always writes and the format still lets a slot omit.  The stamped
  frame is a worker's one report: the parent's collector books the
  compress stage, span and heartbeat from it, so ``/metrics``,
  ``/healthz``, ``/report``, the watchdog and ``repro top`` see process
  workers like thread workers.  ``ChunkRecord`` is ``Frame`` for
  perfbench, whose ``mp.records.*`` rows now include a CRC-32 (0.05 →
  0.12 ms per 256 KiB record);
- :mod:`~repro.mp.pool` — warm compressor processes, started once per
  interpreter and re-armed for each run; :func:`shutdown_pool` (also
  run at exit) stops them;
- :class:`~repro.mp.supervisor.DomainSupervisor` — lays out the
  domains from the lowered ``LiveConfig`` (count, CPU sets, ring
  sizes), places and arms one worker per domain, and monitors/restarts
  them (under :class:`~repro.faults.RetryPolicy`) with graceful SIGTERM
  drain;
- :class:`~repro.mp.pipeline.ProcessFront` — the pipeline's front
  half in process mode (``LiveConfig.execution_mode = "process"``,
  ``repro live --mode process``): one compressor process per NUMA
  domain, each with its *own* pair of domain-local rings (buffer
  locality, not just pinning — the dgen-rs lesson), exactly-once
  delivery preserved across worker crashes by record replay +
  collector dedup.  :class:`~repro.mp.pipeline.ProcessPipeline` is the
  convenience name for a ``LivePipeline`` in that mode.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.mp.pipeline import ProcessPipeline
    from repro.mp.pool import shutdown_pool
    from repro.mp.records import ChunkRecord, pack_record, unpack_record
    from repro.mp.ring import SharedRing
    from repro.mp.supervisor import DomainSupervisor

# Names load on first access, so a worker process importing
# :mod:`repro.mp.workers` does not import the parent-side pipeline (and,
# through it, the live runtime).
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mp.pipeline": ("ProcessPipeline",),
    "repro.mp.pool": ("shutdown_pool",),
    "repro.mp.records": ("ChunkRecord", "pack_record", "unpack_record"),
    "repro.mp.ring": ("SharedRing",),
    "repro.mp.supervisor": ("DomainSupervisor",),
})
