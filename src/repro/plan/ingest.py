"""Front-ends that build a :class:`~repro.plan.ir.PipelinePlan`.

Two ways into the IR:

- :func:`plan_from_scenario` ingests a hand-built
  :class:`~repro.core.config.ScenarioConfig` (the experiment drivers'
  native dialect) so legacy builders ride the same pass pipeline;
- the generator (:class:`repro.core.generator.ConfigGenerator`) builds
  plans natively via :meth:`generate_plan` / :meth:`os_baseline_plan`.

Both produce the same IR, which is the point: one plan, many backends.
"""

from __future__ import annotations

from repro.core.config import (
    RunFields,
    ScenarioConfig,
    StageConfig,
    StreamConfig,
    StreamFields,
    shared_fields,
)
from repro.plan.ir import STAGE_ORDER, PipelinePlan, StageNode, StreamNode
from repro.plan.rules import rationale_for


def stream_from_config(
    cfg: StreamConfig, *, numa_aware: bool = True
) -> StreamNode:
    """Lift one :class:`StreamConfig` into the IR.

    Reads the stage attributes directly rather than ``cfg.stages()``:
    ingestion must stay permissive (a stream with no stages becomes an
    empty node) so the validation pass can report the problem as a
    diagnostic instead of raising mid-lift.
    """
    nodes: list[StageNode] = []
    for kind in STAGE_ORDER:
        stage: StageConfig | None = getattr(cfg, kind.value)
        if stage is None:
            continue
        numa = numa_aware and stage.placement.kind != "os"
        nodes.append(
            StageNode(
                kind=kind,
                count=stage.count,
                placement=stage.placement,
                rationale=rationale_for(kind, numa_aware=numa),
            )
        )
    return StreamNode(
        **shared_fields(cfg, StreamFields), stages=tuple(nodes)
    )


def plan_from_scenario(
    scenario: ScenarioConfig, *, policy: str = "manual"
) -> PipelinePlan:
    """Lift a full scenario into the IR (placements kept verbatim)."""
    numa_aware = policy != "os_baseline"
    shared = shared_fields(scenario, RunFields)
    shared.update(
        machines=dict(scenario.machines),
        paths=dict(scenario.paths),
        streams=[
            stream_from_config(s, numa_aware=numa_aware)
            for s in scenario.streams
        ],
    )
    return PipelinePlan(**shared, policy=policy)
