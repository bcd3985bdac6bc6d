"""``repro plan explain``: render a plan with its placement rationale.

The paper presents placement as a chain of observations (§3, Obs 1-4);
a plan file presents it as bare core lists.  ``explain`` reconnects the
two: for every stage of every stream it prints the placement *and* the
decision that produced it, plus the derived queue edges, so a reader
can audit a plan against the paper without reverse-engineering socket
numbers.
"""

from __future__ import annotations

from repro.hw.topology import MachineSpec
from repro.plan.ir import PipelinePlan, StreamNode
from repro.util.errors import ValidationError


def _machine_line(name: str, m: MachineSpec) -> str:
    cores = "+".join(str(s.cores) for s in m.sockets)
    try:
        nic = m.primary_nic()
        nic_txt = (
            f"NIC {nic.name} ({nic.rate_gbps:g} Gb/s) "
            f"on socket {nic.attached_socket}"
        )
    except ValidationError:
        nic_txt = "no usable NIC"
    return f"  {name}: {m.num_sockets} sockets x {cores} cores, {nic_txt}"


def explain_stream(stream: StreamNode) -> list[str]:
    """The per-stage story of one stream, as report lines."""
    lines = [
        f"stream {stream.stream_id!r}: {stream.sender} -> {stream.receiver}"
        + (f" via {stream.path!r}" if stream.has_hop else " (local)")
    ]
    lines.append(
        f"  workload: {stream.num_chunks} chunks x "
        f"{stream.chunk_bytes / 1e6:.1f} MB, ratio {stream.ratio_mean:g}"
        + (" [micro]" if stream.micro else "")
    )
    for node in stream.stages_in_order():
        lines.append(f"  {node.describe()}")
        if node.rationale:
            lines.append(f"      why: {node.rationale}")
    if stream.edges:
        lines.append("  queues:")
        for edge in stream.edges:
            lines.append(f"    {edge.describe()}")
    for fault in stream.faults:
        lines.append(
            f"  fault: {fault.kind} {fault.stage}[{fault.thread_index}] "
            f"at chunk {fault.at_chunk} for {fault.duration:g}s"
        )
    return lines


def explain_plan(plan: PipelinePlan) -> str:
    """The full plan, annotated with the §3 decision logic."""
    lines = [
        f"plan {plan.name!r}  policy={plan.policy}  seed={plan.seed}",
    ]
    if plan.metadata:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(plan.metadata.items()))
        lines.append(f"  provenance: {meta}")
    lines.append("machines:")
    for name, machine in plan.machines.items():
        lines.append(_machine_line(name, machine))
    for stream in plan.streams:
        lines.append("")
        lines.extend(explain_stream(stream))
    return "\n".join(lines)
