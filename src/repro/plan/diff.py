"""``repro plan diff``: plan-vs-plan drift and sim-vs-live parity.

Two comparisons live here:

- :func:`diff_plans` reports where two plans disagree (placements,
  counts, workload shape, faults) — the tool for "what changed between
  these two generated configs?".
- :func:`substrate_drift` holds the two lowerings to each other: lower
  one plan to the simulator's scenario, lift that back, and check its
  affinity map, stage counts, and fault specs against what the live
  lowering produced.  An empty report is the acceptance bar — the two
  substrates executing one plan must agree on every placement.
"""

from __future__ import annotations

from repro.plan.ir import PipelinePlan, StreamNode


def diff_plans(a: PipelinePlan, b: PipelinePlan) -> list[str]:
    """Human-readable drift between two plans (empty when identical)."""
    out: list[str] = []
    if a.name != b.name:
        out.append(f"name: {a.name!r} != {b.name!r}")
    if a.policy != b.policy:
        out.append(f"policy: {a.policy} != {b.policy}")
    for attr in (
        "seed",
        "warmup_chunks",
        "csw_penalty",
        "wake_affinity",
        "migrate_prob",
        "spill_threshold",
        "max_sim_time",
    ):
        av, bv = getattr(a, attr), getattr(b, attr)
        if av != bv:
            out.append(f"{attr}: {av} != {bv}")
    if a.cost != b.cost:
        out.append("cost model differs")
    if set(a.machines) != set(b.machines):
        out.append(
            f"machines: {sorted(a.machines)} != {sorted(b.machines)}"
        )
    if set(a.paths) != set(b.paths):
        out.append(f"paths: {sorted(a.paths)} != {sorted(b.paths)}")
    if a.execution != b.execution:
        out.append(
            f"execution: {a.execution.describe()} != "
            f"{b.execution.describe()}"
        )
    if a.codec != b.codec:
        out.append(f"codec: {a.codec.describe()} != {b.codec.describe()}")
    if a.control != b.control:
        out.append(
            f"control: {a.control.describe()} != {b.control.describe()}"
        )

    a_ids, b_ids = set(a.stream_ids()), set(b.stream_ids())
    for sid in sorted(a_ids - b_ids):
        out.append(f"stream {sid!r}: only in first plan")
    for sid in sorted(b_ids - a_ids):
        out.append(f"stream {sid!r}: only in second plan")
    for sid in sorted(a_ids & b_ids):
        out.extend(_diff_streams(a.stream(sid), b.stream(sid)))
    return out


def _diff_streams(a: StreamNode, b: StreamNode) -> list[str]:
    out: list[str] = []
    sid = a.stream_id
    for attr in (
        "sender",
        "receiver",
        "path",
        "num_chunks",
        "chunk_bytes",
        "ratio_mean",
        "ratio_sigma",
        "source_socket",
        "queue_capacity",
        "batch_frames",
        "micro",
    ):
        av, bv = getattr(a, attr), getattr(b, attr)
        if av != bv:
            out.append(f"stream {sid!r} {attr}: {av!r} != {bv!r}")
    a_stages = {n.kind: n for n in a.stages}
    b_stages = {n.kind: n for n in b.stages}
    for kind in sorted(
        set(a_stages) | set(b_stages), key=lambda k: k.value
    ):
        an, bn = a_stages.get(kind), b_stages.get(kind)
        if an is None or bn is None:
            which = "first" if bn is None else "second"
            out.append(
                f"stream {sid!r} stage {kind.value}: only in {which} plan"
            )
            continue
        if an.count != bn.count:
            out.append(
                f"stream {sid!r} stage {kind.value}: "
                f"count {an.count} != {bn.count}"
            )
        if an.placement != bn.placement:
            out.append(
                f"stream {sid!r} stage {kind.value}: placement "
                f"{an.placement.describe()} != {bn.placement.describe()}"
            )
    if tuple(a.faults) != tuple(b.faults):
        out.append(f"stream {sid!r}: fault specs differ")
    return out


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
        sim_counts = {
            n.kind.value: n.count for n in lifted.stages_in_order()
        }
        if sim_counts != live.stage_counts:
            out.append(
                f"stream {sid!r}: stage counts {sim_counts} != "
                f"{live.stage_counts}"
            )
        if tuple(sim_cfg.faults) != live.faults:
            out.append(f"stream {sid!r}: fault specs differ across substrates")
    return out
