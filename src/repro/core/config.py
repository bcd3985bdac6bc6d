"""Runtime configuration: the declarative description of one scenario.

A :class:`ScenarioConfig` is what the paper's *runtime configuration
generator* emits (Figure 4): for every node, "the type of tasks
designated to individual sockets, the number of tasks, and the task
execution location" — plus the machines, network paths and workload
needed to run it.

Structure::

    ScenarioConfig
      machines: {name -> MachineSpec}
      paths:    {name -> PathSpec}
      streams:  [StreamConfig]          # one per detector stream
        sender-side stages: ingest?, compress?, send
        receiver-side stages: recv, decompress?
        each stage: StageConfig(count, PlacementSpec)

Stages are optional so the §3 microbenchmarks (compression only,
decompression only, network only) are expressed as degenerate pipelines
of the same machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

from repro.core.params import CostModel, PathSpec
from repro.core.placement import PlacementSpec
from repro.hw.topology import MachineSpec
from repro.util.errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - the plan layer builds on this module
    from repro.plan.diagnostics import Diagnostics


@dataclass(frozen=True)
class FaultSpec:
    """An injected fault on one pipeline thread (failure testing).

    - ``kind="stall"``: the thread pauses for ``duration`` simulated
      seconds once, before processing its ``at_chunk``-th chunk —
      a GC pause, page fault storm, or interrupt burst;
    - ``kind="degrade"``: from its ``at_chunk``-th chunk on, the thread
      adds ``duration`` seconds of dead time per chunk — a thermally
      throttled or noisy-neighboured core;
    - ``kind="crash"``: the thread dies mid-way through its
      ``at_chunk``-th chunk and restarts: the work already done on that
      chunk is lost (its flow runs once for nothing), recovery takes
      ``duration`` seconds, then the chunk is reprocessed;
    - ``kind="reconnect"``: same shape on a connection — the in-flight
      transfer is lost, re-dialing costs ``duration`` seconds (the live
      runtime's capped backoff), and the chunk is redelivered.

    ``crash``/``reconnect`` mirror the live substrate's fault injection
    (:mod:`repro.faults`): both bump the shared telemetry resilience
    counters, so sim and live chaos runs read identically.  Faults
    exercise the pipeline's backpressure: upstream stages must block on
    full queues and drain afterwards with no chunk lost.
    """

    stage: str  # StageKind value, e.g. "compress"
    thread_index: int = 0
    at_chunk: int = 5
    duration: float = 0.05
    kind: str = "stall"

    KINDS = ("stall", "degrade", "crash", "reconnect")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown fault kind {self.kind!r}")
        if self.duration < 0:
            raise ValidationError("fault duration must be >= 0")
        if self.at_chunk < 0 or self.thread_index < 0:
            raise ValidationError("fault indices must be >= 0")


class StageKind(enum.Enum):
    """The paper's pipeline stages (Figure 2) plus source ingest and
    sink egest, declared in pipeline order."""

    INGEST = "ingest"
    COMPRESS = "compress"
    SEND = "send"
    RECV = "recv"
    DECOMPRESS = "decompress"
    EGEST = "egest"

    @property
    def sender_side(self) -> bool:
        return self in (StageKind.INGEST, StageKind.COMPRESS, StageKind.SEND)


@dataclass(frozen=True)
class StageConfig:
    """Thread count + placement of one stage for one stream."""

    count: int
    placement: PlacementSpec

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValidationError("stage count must be >= 1")


@dataclass
class StreamFields:
    """What both forms of a stream state: endpoints, workload, faults.

    Declared here once.  :class:`StreamConfig` (what the simulator
    executes) and :class:`repro.plan.ir.StreamNode` (the plan IR) both
    inherit these fields, so the lift, the lowering, the file format
    and ``repro plan diff`` enumerate them with
    :func:`dataclasses.fields` instead of repeating the list.
    Declaration order is the key order of a stream in a plan file.
    """

    stream_id: str
    sender: str
    receiver: str
    path: str
    num_chunks: int = 200
    chunk_bytes: int = 11_059_200  # one X-ray projection (§3.2)
    ratio_mean: float = 2.0
    ratio_sigma: float = 0.03
    #: NUMA domain the source dataset is pinned to (Table 1's "Memory
    #: Domain"); None means first-touch by the ingest/compress threads.
    source_socket: int | None = None
    #: Bounded inter-stage queue depth (chunks) — the paper's
    #: thread-safe queues; small values give tight backpressure.
    queue_capacity: int = 4
    #: True for the §3.2/§3.3 standalone microbenchmarks (no pipeline
    #: overhead on compute rates); False for full streaming pipelines.
    micro: bool = False
    #: Injected faults for failure testing (see :class:`FaultSpec`).
    faults: tuple[FaultSpec, ...] = ()

    def workload_errors(self) -> list[str]:
        """Every workload-shape constraint this stream violates.

        ``StreamConfig`` raises the first at construction; the plan
        validator reports them all (the IR is permissive by design).
        """
        checks = (
            (self.num_chunks < 1, "num_chunks must be >= 1"),
            (self.chunk_bytes < 1, "chunk_bytes must be >= 1"),
            (self.ratio_mean <= 0, "ratio_mean must be > 0"),
            (self.queue_capacity < 1, "queue_capacity must be >= 1"),
        )
        return [message for violated, message in checks if violated]


def shared_fields(src: object, base: type) -> dict[str, Any]:
    """``{name: value}`` of the fields ``base`` declares, read off
    ``src`` — how the lift and the lowering copy what both forms share."""
    return {f.name: getattr(src, f.name) for f in fields(base)}


@dataclass
class StreamConfig(StreamFields):
    """One detector stream: workload, endpoints, and per-stage configs."""

    ingest: StageConfig | None = None
    compress: StageConfig | None = None
    send: StageConfig | None = None
    recv: StageConfig | None = None
    decompress: StageConfig | None = None
    #: Receiver-side sink writers ("stores it back into memory or disk",
    #: Figure 2); optional — most experiments leave delivery in memory.
    egest: StageConfig | None = None

    def __post_init__(self) -> None:
        errors = self.workload_errors()
        if errors:
            raise ValidationError(errors[0])
        if (self.send is None) != (self.recv is None):
            raise ConfigurationError(
                f"stream {self.stream_id!r}: send and recv stages must both "
                "be present (a network hop) or both absent (local pipeline)"
            )

    def stages(self) -> dict[StageKind, StageConfig]:
        """Present stages, in pipeline order."""
        out: dict[StageKind, StageConfig] = {
            kind: cfg
            for kind in StageKind
            if (cfg := getattr(self, kind.value)) is not None
        }
        if not out:
            raise ConfigurationError(
                f"stream {self.stream_id!r} has no stages"
            )
        return out


@dataclass
class RunFields:
    """What both forms of a run state: facts, cost model, sim settings.

    The run-level counterpart of :class:`StreamFields`:
    :class:`ScenarioConfig` and :class:`repro.plan.ir.PipelinePlan`
    inherit these, each redeclaring ``streams`` with its own element
    type (a redeclared field keeps its place in the order).
    """

    name: str
    machines: dict[str, MachineSpec]
    paths: dict[str, PathSpec]
    streams: list[Any]
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 7
    #: Chunk completions per stream discarded before measuring rates
    #: (pipeline fill).
    warmup_chunks: int = 20
    #: Context-switch penalty per extra runnable thread on a core.
    csw_penalty: float = 0.04
    #: OS scheduler behaviour for os-managed placements.
    wake_affinity: float = 0.85
    migrate_prob: float = 0.005
    spill_threshold: int = 1
    #: Hard wall on simulated seconds (deadlock/runaway guard).
    max_sim_time: float = 600.0


@dataclass
class ScenarioConfig(RunFields):
    """A complete runnable scenario."""

    streams: list[StreamConfig]

    def __post_init__(self) -> None:
        self.validate()

    def diagnose(self) -> "Diagnostics":
        """Cross-check the scenario, collecting *every* violation.

        Lifts the scenario into the plan IR and runs the validation
        pass (:func:`repro.plan.validate.validate_plan`), so a scenario
        with three bad placements reports all three at once instead of
        stopping at the first.  Imported lazily: the plan layer builds
        on this module.
        """
        from repro.plan.ingest import plan_from_scenario
        from repro.plan.validate import validate_plan

        return validate_plan(plan_from_scenario(self))

    def validate(self) -> None:
        """Raising wrapper over :meth:`diagnose` (compatibility).

        Raises one :class:`ConfigurationError` whose message lists every
        collected error, one per line.
        """
        self.diagnose().raise_if_errors()

    def with_cost(self, cost: CostModel) -> "ScenarioConfig":
        """Copy with a different cost model (ablations)."""
        return replace(self, cost=cost)
