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
- :class:`~repro.mp.stats.StatsBlock` — a lightweight shared-memory
  counter page each worker process writes and the parent snapshots
  into the ordinary telemetry registry, so ``/metrics``, ``/report``
  and ``repro top`` keep working across the process boundary;
- :mod:`~repro.mp.topology` — worker-process specs (stage role, CPU
  set, ring attachments) lowered from the plan IR's ``execution``
  policy node;
- :class:`~repro.mp.supervisor.DomainSupervisor` — spawn/monitor/
  restart (under :class:`~repro.faults.RetryPolicy`) with graceful
  SIGTERM drain;
- :class:`~repro.mp.pipeline.ProcessFront` — the pipeline's front
  half in process mode (``LiveConfig.execution_mode = "process"``,
  ``repro live --mode process``): one compressor process per NUMA
  domain, each with its *own* pair of domain-local rings (buffer
  locality, not just pinning — the dgen-rs lesson), exactly-once
  delivery preserved across worker crashes by record replay +
  collector dedup.  :class:`~repro.mp.pipeline.ProcessPipeline` is the
  convenience name for a ``LivePipeline`` in that mode.
"""

from repro.mp.pipeline import ProcessPipeline
from repro.mp.records import ChunkRecord, pack_record, unpack_record
from repro.mp.ring import SharedRing
from repro.mp.stats import StatsBlock, WorkerState
from repro.mp.supervisor import DomainSupervisor
from repro.mp.topology import (
    ProcessTopology,
    RingSpec,
    WorkerSpec,
    domain_cpu_sets,
    plan_topology,
)

__all__ = [
    "ChunkRecord",
    "DomainSupervisor",
    "ProcessPipeline",
    "ProcessTopology",
    "RingSpec",
    "SharedRing",
    "StatsBlock",
    "WorkerSpec",
    "WorkerState",
    "domain_cpu_sets",
    "pack_record",
    "plan_topology",
    "unpack_record",
]
