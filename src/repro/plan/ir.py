"""The substrate-neutral pipeline plan IR.

A :class:`PipelinePlan` is the paper's Figure-4 artifact — "the type of
tasks designated to individual sockets, the number of tasks, and the
task execution location" — held in a form neither the simulator nor the
live runtime owns.  The planner (:mod:`repro.plan.passes`) runs
``generate -> validate -> normalize -> lower`` over it; the two
lowerings (:mod:`repro.plan.lower`) emit what each substrate executes:
a :class:`~repro.core.config.ScenarioConfig` for the simulator, a
:class:`~repro.live.runtime.LiveConfig` + affinity map for real
threads.

Structure::

    PipelinePlan
      machines: {name -> MachineSpec}     topology facts
      paths:    {name -> PathSpec}        network facts
      streams:  [StreamNode]              one per detector stream
        stages: (StageNode, ...)          pipeline order, with rationale
        edges:  (QueueEdge, ...)          bounded queues (normalize derives)
        faults: (FaultSpec, ...)          failure testing, both substrates

The IR deliberately reuses the declarative vocabulary types
(:class:`StageKind`, :class:`PlacementSpec`, :class:`FaultSpec`,
:class:`MachineSpec`, :class:`PathSpec`) — those describe *facts and
decisions*, not execution, so they are substrate-neutral already.
Unlike :class:`~repro.core.config.ScenarioConfig`, construction does
not validate: a plan may be inconsistent, and the validation pass
reports every problem at once (:mod:`repro.plan.diagnostics`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from repro.compress.codec import CodecSpec
from repro.core.config import RunFields, StageKind, StreamFields
from repro.core.placement import PlacementSpec

#: Canonical pipeline order (Figure 2 plus source ingest / sink egest).
STAGE_ORDER: tuple[StageKind, ...] = tuple(StageKind)

#: Plan policies: how the placements were decided.
POLICIES = ("numa_aware", "os_baseline", "manual")


@dataclass(frozen=True)
class StageNode:
    """One pipeline stage of one stream: threads, placement, and why."""

    kind: StageKind
    count: int
    placement: PlacementSpec
    #: Human-readable placement rationale (the §3 decision that put it
    #: there); surfaces in ``repro plan explain`` and plan files.
    rationale: str = ""

    def describe(self) -> str:
        return f"{self.kind.value} x{self.count} @ {self.placement.describe()}"


@dataclass(frozen=True)
class QueueEdge:
    """A bounded queue between two stages (the paper's thread-safe
    queues; small capacities give tight backpressure)."""

    src: str
    dst: str
    capacity: int
    #: True for the send->recv leg, where each S/R pair gets its own
    #: socket/arrival queue pair rather than one shared store.
    per_connection: bool = False

    def describe(self) -> str:
        fan = " (per connection)" if self.per_connection else ""
        return f"{self.src} -> {self.dst} [cap {self.capacity}]{fan}"


class PolicyNode:
    """What the four policy nodes share: every field has a default, and
    a node left at its defaults is not written to the plan file — so a
    plan that never opted in round-trips byte-identically with files
    written before the node existed."""

    @property
    def is_default(self) -> bool:
        return self == type(self)()


@dataclass(frozen=True)
class ExecutionNode(PolicyNode):
    """How the live substrate should *execute* the plan — a policy
    node, not a placement one.

    ``thread`` (the default) keeps the single-process pipeline;
    ``process`` runs one compressor process per NUMA domain over
    shared-memory rings (:mod:`repro.mp`), which is the only mode that
    can physically demonstrate multi-core compression scaling from
    CPython.
    """

    mode: str = "thread"
    #: Compressor domains in process mode; 0 = one per planned
    #: compress worker.
    domains: int = 0
    #: Records buffered per shared-memory ring (per domain/direction).
    ring_capacity: int = 8
    #: Ring slot size, bytes; must fit one packed chunk record.
    ring_slot_bytes: int = 1 << 20
    #: Reactor shards of the live receiver's event-loop plane; 0 = auto
    #: (one per NUMA-domain core, mirroring the NIC's RSS hash→queue
    #: fan-out, Obs 3/4).
    receiver_shards: int = 0

    def describe(self) -> str:
        recv = f" recv x{self.receiver_shards}" if self.receiver_shards else ""
        if self.mode == "thread":
            return f"thread{recv}" if recv else "thread"
        d = self.domains or "auto"
        return (
            f"process x{d} (ring {self.ring_capacity} x "
            f"{self.ring_slot_bytes}B){recv}"
        )


#: Why any receiver-plane name but ``"eventloop"`` is refused — by
#: ``ReceiverServer(mode=)`` and by the plan loader, for documents
#: written while the plane was a choice.
REMOVED_RECEIVER_PLANE = (
    'the thread-per-connection receiver plane ("threads") was removed; '
    "the event-loop plane is the only one"
)


def stream_shard(stream_id: str, shards: int) -> int:
    """RSS-style stream→shard mapping shared by sim and live.

    Deterministic across processes and runs (CRC-32 of the stream id —
    Python's ``hash`` is salted per process), so the plan's sharding
    policy lowers identically everywhere: the software analogue of the
    NIC hashing a flow onto a fixed RSS queue.
    """
    if shards <= 1:
        return 0
    return zlib.crc32(stream_id.encode()) % shards


@dataclass(frozen=True)
class CodecNode(PolicyNode):
    """Which codec compresses payloads — a policy node, not a placement.

    Names one registered codec plus its constructor params.  The
    default is zlib with no params.
    """

    name: str = "zlib"
    #: Constructor params as sorted ``(key, value)`` pairs (e.g.
    #: ``(("level", 9),)``) — a tuple so the node stays hashable.
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_spec(cls, spec: "CodecSpec | str") -> "CodecNode":
        """Lift a codec spec (or spec string) into the IR node."""
        if isinstance(spec, str):
            spec = CodecSpec.parse(spec)
        return cls(name=spec.name, params=tuple(sorted(spec.params.items())))

    def spec(self) -> CodecSpec:
        """The :class:`CodecSpec` this node lowers to."""
        return CodecSpec(self.name, dict(self.params))

    def describe(self) -> str:
        return str(self.spec())


@dataclass(frozen=True)
class TraceNode(PolicyNode):
    """Flow-tracing policy — head-based sampling of per-chunk traces.

    When ``sample`` is N > 0, the feeder marks every Nth chunk of each
    stream with a trace context; the mark propagates through queue,
    ring, and wire handoffs and both endpoints record per-chunk spans
    that :mod:`repro.telemetry.assemble` reassembles into causal
    timelines.
    ``per_stream_cap`` bounds traces per stream (0 = unbounded).
    """

    #: 1-in-N head sampling rate; 0 disables tracing, 1 traces all.
    sample: int = 0
    #: Max traces started per stream (0 = unbounded).
    per_stream_cap: int = 0

    @property
    def enabled(self) -> bool:
        return self.sample > 0

    def describe(self) -> str:
        if not self.enabled:
            return "disabled"
        cap = (
            f", cap {self.per_stream_cap}/stream"
            if self.per_stream_cap
            else ""
        )
        return f"1-in-{self.sample} head sampling{cap}"


@dataclass
class StreamNode(StreamFields):
    """One detector stream: workload, endpoints, stages, and faults.

    Not frozen only because a dataclass must match its base, and the
    base is shared with the mutable :class:`StreamConfig`; the passes
    still rewrite streams with :func:`dataclasses.replace`.
    """

    stages: tuple[StageNode, ...] = ()
    #: Derived by the normalize pass; () until then.
    edges: tuple[QueueEdge, ...] = ()

    # -- accessors -------------------------------------------------------

    def stage(self, kind: StageKind) -> StageNode | None:
        """The stage node of one kind, or None when absent."""
        for node in self.stages:
            if node.kind == kind:
                return node
        return None

    def stages_in_order(self) -> tuple[StageNode, ...]:
        """Present stages, canonical pipeline order."""
        by_kind = {node.kind: node for node in self.stages}
        return tuple(by_kind[k] for k in STAGE_ORDER if k in by_kind)

    @property
    def has_hop(self) -> bool:
        """True when the stream crosses the network (send+recv present)."""
        return self.stage(StageKind.SEND) is not None

    def stage_counts(self) -> dict[str, int]:
        """``{stage name: thread count}`` for present stages, in order."""
        return {n.kind.value: n.count for n in self.stages_in_order()}


@dataclass
class PipelinePlan(RunFields):
    """A complete, substrate-neutral plan for one run."""

    streams: list[StreamNode]
    #: How placements were decided: "numa_aware" (the paper's runtime),
    #: "os_baseline" (§4.2 comparison), or "manual" (hand-built).
    policy: str = "manual"
    #: How the live substrate executes the plan (thread vs process).
    execution: ExecutionNode = field(default_factory=ExecutionNode)
    #: Which codec compresses payloads.
    codec: CodecNode = field(default_factory=CodecNode)
    #: Flow-tracing sampling policy (disabled unless opted into).
    trace: TraceNode = field(default_factory=TraceNode)
    #: Free-form provenance (workload name, generator inputs, ...).
    metadata: dict[str, str] = field(default_factory=dict)

    # -- accessors -------------------------------------------------------

    def stream(self, stream_id: str) -> StreamNode:
        for s in self.streams:
            if s.stream_id == stream_id:
                return s
        raise KeyError(f"no stream {stream_id!r} in plan {self.name!r}")

    def stream_ids(self) -> list[str]:
        return [s.stream_id for s in self.streams]

    def __iter__(self) -> Iterator[StreamNode]:
        return iter(self.streams)

    def with_streams(self, streams: list[StreamNode]) -> "PipelinePlan":
        """Copy with different streams (passes rewrite immutably)."""
        return replace(self, streams=streams)

    def describe(self) -> str:
        """Terse one-plan summary for logs and CLI output."""
        lines = [
            f"plan {self.name!r} [{self.policy}]: "
            f"{len(self.machines)} machines, {len(self.streams)} streams"
        ]
        for name in ("execution", "codec", "trace"):
            node = getattr(self, name)
            if not node.is_default:
                lines.append(f"  {name}: {node.describe()}")
        for s in self.streams:
            stages = ", ".join(n.describe() for n in s.stages_in_order())
            lines.append(f"  {s.stream_id}: {s.sender} -> {s.receiver}: {stages}")
        return "\n".join(lines)
