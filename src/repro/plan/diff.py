"""``repro plan diff``: plan-vs-plan drift and sim-vs-live parity.

Two comparisons live here:

- :func:`diff_plans` reports where two plans disagree, field by field
  (the text rendering of :func:`repro.plan.delta.plan_drift`) — the
  tool for "what changed between these two generated configs?".
- :func:`substrate_drift` holds the two lowerings to each other: lower
  one plan to the simulator's scenario, lift that back, and check its
  affinity map, stage counts, and fault specs against what the live
  lowering produced.  An empty report is the acceptance bar — the two
  substrates executing one plan must agree on every placement.
"""

from __future__ import annotations

from repro.plan.delta import plan_drift
from repro.plan.ir import PipelinePlan


def diff_plans(a: PipelinePlan, b: PipelinePlan) -> list[str]:
    """Human-readable drift between two plans (empty when identical)."""
    return [line for line, _ in plan_drift(a, b)]


def substrate_drift(
    plan: PipelinePlan, *, host_cpus: int | None = None
) -> list[str]:
    """Placement drift between the sim and live lowerings of one plan.

    Lowers the plan to the simulator's scenario, lifts each lowered
    stream back into the IR, and maps its placements through the same
    host-CPU folding the live lowering uses; any disagreement with the
    live lowering's affinity map, stage counts, or fault specs is a
    lowering bug and gets reported.  Empty list == perfect parity.
    """
    from repro.plan.ingest import stream_from_config
    from repro.plan.lower import lower_live, lower_sim, stream_affinity

    scenario = lower_sim(plan)
    out: list[str] = []
    for sim_cfg in scenario.streams:
        sid = sim_cfg.stream_id
        live = lower_live(plan, sid, host_cpus=host_cpus)
        lifted = stream_from_config(sim_cfg)
        sender = scenario.machines[sim_cfg.sender]
        receiver = scenario.machines[sim_cfg.receiver]
        sim_affinity = stream_affinity(
            lifted, sender, receiver, host_cpus=host_cpus
        )
        for stage in sorted(set(sim_affinity) | set(live.affinity)):
            sim_cpus = sim_affinity.get(stage)
            live_cpus = live.affinity.get(stage)
            if sim_cpus != live_cpus:
                out.append(
                    f"stream {sid!r} stage {stage}: sim cpus "
                    f"{sim_cpus} != live cpus {live_cpus}"
                )
        sim_counts = lifted.stage_counts()
        if sim_counts != live.stage_counts:
            out.append(
                f"stream {sid!r}: stage counts {sim_counts} != "
                f"{live.stage_counts}"
            )
        if tuple(sim_cfg.faults) != live.faults:
            out.append(f"stream {sid!r}: fault specs differ across substrates")
    return out
