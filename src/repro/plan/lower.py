"""The lowering passes: one plan, two substrates.

``lower_sim`` emits the :class:`~repro.core.config.ScenarioConfig` the
discrete-event runtime executes; ``lower_live`` emits a
:class:`~repro.live.runtime.LiveConfig` plus per-stage CPU affinity for
the real-thread pipeline.  Both read the same
:class:`~repro.plan.ir.PipelinePlan`, which is what keeps the two
substrates from drifting: ``repro plan diff --substrates`` holds them
to placement parity.

The live lowering owns the modulo host-mapping: modelled cores map
onto host CPUs by global
index modulo the host's CPU count, preserving the *grouping* (which
stages share cores, which are apart) even when the modelled machine is
bigger than this host.  Placement stays advisory on the live path
(DESIGN.md §2), but the grouping is the plan's signature.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import (
    FaultSpec,
    RunFields,
    ScenarioConfig,
    StageConfig,
    StageKind,
    StreamConfig,
    StreamFields,
    shared_fields,
)
from repro.hw.topology import CoreId, MachineSpec
from repro.plan.ir import PipelinePlan, StreamNode
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.runtime import LiveConfig

#: live-pipeline stage names -> plan stage kinds.
LIVE_STAGES: dict[str, StageKind] = {
    "feed": StageKind.INGEST,
    "compress": StageKind.COMPRESS,
    "send": StageKind.SEND,
    "recv": StageKind.RECV,
    "decompress": StageKind.DECOMPRESS,
}


# ---------------------------------------------------------------------------
# sim lowering
# ---------------------------------------------------------------------------


def lower_sim(plan: PipelinePlan) -> ScenarioConfig:
    """Lower a plan to the simulator's executable scenario form.

    A non-default codec policy scales the cost model's compress and
    decompress rates (:meth:`CostModel.for_codec`) so the simulator
    prices the same codec the live substrate would run.  The default
    node keeps the calibrated rates untouched — they are tied to the
    paper's own microbenchmarks and stay the baseline.
    """
    cost = (
        plan.cost
        if plan.codec.is_default
        else plan.cost.for_codec(plan.codec.name)
    )
    shared = shared_fields(plan, RunFields)
    shared.update(
        machines=dict(plan.machines),
        paths=dict(plan.paths),
        streams=[_lower_stream(s) for s in plan.streams],
        cost=cost,
    )
    return ScenarioConfig(**shared)


def _lower_stream(s: StreamNode) -> StreamConfig:
    stages: dict[str, StageConfig] = {
        node.kind.value: StageConfig(node.count, node.placement)
        for node in s.stages_in_order()
    }
    return StreamConfig(**shared_fields(s, StreamFields), **stages)


# ---------------------------------------------------------------------------
# live lowering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiveLowering:
    """What the live substrate needs to execute one stream of a plan."""

    stream_id: str
    config: "LiveConfig"
    #: live stage name -> host CPU list (only pinnable stages present).
    affinity: dict[str, list[int]]
    #: The plan's fault specs, verbatim — same objects ``lower_sim``
    #: hands the simulator, so chaos scenarios read identically.
    faults: tuple[FaultSpec, ...]
    #: Plan-side thread counts per present stage (includes stages the
    #: live pipeline folds away, e.g. egest).
    stage_counts: dict[str, int]


def lower_live(
    plan: PipelinePlan,
    stream_id: str | None = None,
    *,
    codec: str | None = None,
    host_cpus: int | None = None,
) -> LiveLowering:
    """Lower one stream of a plan to the live pipeline's config.

    The live pipeline runs one stream per process; multi-stream plans
    must name which stream with ``stream_id``.  ``codec=None`` (the
    default) routes the plan's own codec policy node into the config
    as a spec string; an explicit spec string overrides the plan.
    """
    from repro.live.runtime import LiveConfig

    if stream_id is None:
        if len(plan.streams) != 1:
            raise ConfigurationError(
                f"plan {plan.name!r} has {len(plan.streams)} streams; "
                "pass stream_id to choose one for the live lowering"
            )
        stream = plan.streams[0]
    else:
        stream = plan.stream(stream_id)

    sender = plan.machines.get(stream.sender)
    receiver = plan.machines.get(stream.receiver)
    if sender is None or receiver is None:
        raise ConfigurationError(
            f"stream {stream.stream_id!r}: machines {stream.sender!r}/"
            f"{stream.receiver!r} must be in the plan to lower placements"
        )
    affinity = stream_affinity(
        stream, sender, receiver, host_cpus=host_cpus
    )

    def count(kind: StageKind, default: int = 1) -> int:
        node = stream.stage(kind)
        return node.count if node is not None else default

    execution = plan.execution
    config = LiveConfig(
        codec=codec if codec is not None else str(plan.codec.spec()),
        compress_threads=count(StageKind.COMPRESS),
        decompress_threads=count(StageKind.DECOMPRESS),
        connections=count(StageKind.SEND),
        queue_capacity=stream.queue_capacity,
        affinity=affinity,
        execution_mode=execution.mode,
        process_domains=execution.domains,
        ring_capacity=execution.ring_capacity,
        ring_slot_bytes=execution.ring_slot_bytes,
        receiver_shards=execution.receiver_shards,
        trace_sample=plan.trace.sample,
        trace_per_stream_cap=plan.trace.per_stream_cap,
    )
    return LiveLowering(
        stream_id=stream.stream_id,
        config=config,
        affinity=affinity,
        faults=tuple(stream.faults),
        stage_counts=stream.stage_counts(),
    )


def stream_affinity(
    stream: StreamNode,
    sender: MachineSpec,
    receiver: MachineSpec,
    *,
    host_cpus: int | None = None,
) -> dict[str, list[int]]:
    """Map one stream's placements to live-stage CPU hints.

    Only pinned/socket/split placements translate (OS-managed stages
    are left unpinned, which is exactly what they mean).  Modelled
    cores fold onto host CPUs by global index modulo the CPU count.
    """
    ncpu = host_cpus if host_cpus is not None else (os.cpu_count() or 1)
    if ncpu < 1:
        raise ConfigurationError("host reports no CPUs")
    out: dict[str, list[int]] = {}
    for live_name, kind in LIVE_STAGES.items():
        node = stream.stage(kind)
        if node is None or node.placement.kind == "os":
            continue
        machine = sender if kind.sender_side else receiver
        p = node.placement
        if p.kind == "cores":
            cores: list[CoreId] = list(p.cores)
        else:
            cores = [c for s in p.sockets for c in machine.cores_of(s)]
        cps = machine.sockets[0].cores
        cpus = sorted({c.global_index(cps) % ncpu for c in cores})
        if cpus:
            out[live_name] = cpus
    return out
