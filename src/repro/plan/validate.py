"""The validation pass: cross-check a plan, collecting every violation.

Replaces the first-error-wins semantics of the historical
``ScenarioConfig.validate()`` (which now routes here): each finding is
a located :class:`~repro.plan.diagnostics.Diagnostic` carrying the
stream and stage it refers to, so a plan with three bad placements
reports all three in one pass.

Error message texts are kept byte-compatible with the exceptions the
config layer used to raise — callers that matched on them keep working.
"""

from __future__ import annotations

from repro.core.config import StageKind
from repro.hw.topology import MachineSpec
from repro.plan.diagnostics import Diagnostics
from repro.plan.ir import PipelinePlan, StageNode, StreamNode
from repro.util.errors import ValidationError


def validate_plan(plan: PipelinePlan) -> Diagnostics:
    """Cross-check stream references and placements against machines."""
    diags = Diagnostics()
    if not plan.streams:
        diags.error(
            "no-streams", f"scenario {plan.name!r} has no streams"
        )
    ids = [s.stream_id for s in plan.streams]
    if len(set(ids)) != len(ids):
        diags.error(
            "duplicate-streams", f"duplicate stream ids in {plan.name!r}"
        )
    _validate_execution(plan, diags)
    _validate_codec(plan, diags)
    _validate_trace(plan, diags)
    for stream in plan.streams:
        _validate_stream(plan, stream, diags)
    return diags


def _validate_execution(plan: PipelinePlan, diags: Diagnostics) -> None:
    """The execution policy node (permissive IR, checked here)."""
    ex = plan.execution
    if ex.mode not in ("thread", "process"):
        diags.error(
            "bad-execution",
            f"execution mode must be 'thread' or 'process', not {ex.mode!r}",
        )
    if ex.domains < 0:
        diags.error("bad-execution", "execution domains must be >= 0")
    if ex.ring_capacity < 1:
        diags.error("bad-execution", "ring_capacity must be >= 1")
    if ex.ring_slot_bytes < 64:
        diags.error(
            "bad-execution", "ring_slot_bytes must be >= 64 bytes"
        )
    if ex.receiver_shards < 0:
        diags.error("bad-execution", "receiver_shards must be >= 0")


def _validate_codec(plan: PipelinePlan, diags: Diagnostics) -> None:
    """The codec policy node: name and params must resolve to a
    constructible codec (the IR itself is permissive)."""
    try:
        plan.codec.spec().create()
    except ValidationError as exc:
        diags.error("bad-codec", f"codec policy: {exc}")


def _validate_trace(plan: PipelinePlan, diags: Diagnostics) -> None:
    """The flow-tracing policy node (permissive IR, checked here)."""
    t = plan.trace
    if t.sample < 0:
        diags.error("bad-trace", "trace sample must be >= 0")
    if t.per_stream_cap < 0:
        diags.error("bad-trace", "trace per_stream_cap must be >= 0")
    if t.per_stream_cap and not t.sample:
        diags.error(
            "bad-trace",
            "trace per_stream_cap without a sample rate has no effect",
        )


def _validate_stream(
    plan: PipelinePlan, s: StreamNode, diags: Diagnostics
) -> None:
    sid = s.stream_id
    if not s.stages:
        diags.error("no-stages", f"stream {sid!r} has no stages", stream=sid)

    # The StreamConfig construction rules, re-checked here because the
    # IR is permissive by design.
    for message in s.workload_errors():
        diags.error("bad-workload", message, stream=sid)

    machines: dict[str, MachineSpec | None] = {}
    for role, mname in (("sender", s.sender), ("receiver", s.receiver)):
        machine = plan.machines.get(mname)
        machines[role] = machine
        if machine is None:
            diags.error(
                "unknown-machine",
                f"stream {sid!r}: unknown {role} machine {mname!r}",
                stream=sid,
            )

    send = s.stage(StageKind.SEND)
    recv = s.stage(StageKind.RECV)
    if (send is None) != (recv is None):
        diags.error(
            "unpaired-hop",
            f"stream {sid!r}: send and recv stages must both "
            "be present (a network hop) or both absent (local pipeline)",
            stream=sid,
        )
    if send is not None and s.path not in plan.paths:
        diags.error(
            "unknown-path",
            f"stream {sid!r}: unknown path {s.path!r}",
            stream=sid,
        )
    if send is not None and recv is not None and send.count != recv.count:
        diags.error(
            "unpaired-connections",
            f"stream {sid!r}: send count {send.count} != "
            f"recv count {recv.count} (threads pair into TCP "
            "connections, §3.4)",
            stream=sid,
        )

    for node in s.stages:
        machine = machines["sender" if node.kind.sender_side else "receiver"]
        if machine is not None:
            _validate_placement(sid, node, machine, diags)

    sender = machines["sender"]
    if s.source_socket is not None and sender is not None:
        try:
            sender._check_socket(s.source_socket)
        except ValidationError as exc:
            diags.error(
                "bad-source-socket",
                f"stream {sid!r}: source_socket: {exc}",
                stream=sid,
            )


def _validate_placement(
    sid: str, node: StageNode, machine: MachineSpec, diags: Diagnostics
) -> None:
    stage_name = node.kind.value
    if node.count < 1:
        diags.error(
            "bad-stage-count",
            f"stream {sid!r} stage {stage_name}: stage count must be >= 1",
            stream=sid,
            stage=stage_name,
        )
    p = node.placement
    try:
        for sock in p.sockets:
            machine._check_socket(sock)
        for core in p.cores:
            machine._check_socket(core.socket)
            if core.index >= machine.sockets[core.socket].cores:
                raise ValidationError(
                    f"core {core} does not exist on {machine.name!r}"
                )
        if p.hint_socket is not None:
            machine._check_socket(p.hint_socket)
    except ValidationError as exc:
        diags.error(
            "bad-placement",
            f"stream {sid!r} stage {stage_name}: {exc}",
            stream=sid,
            stage=stage_name,
        )
        return

    # Obs 2's context-switch cliff: more than ~2 threads per distinct
    # core only adds switching overhead.  Advisory, not fatal.
    if p.kind == "cores" and p.cores:
        distinct = len(set(p.cores))
        if node.count > 2 * distinct:
            diags.warning(
                "oversubscribed",
                f"stream {sid!r} stage {stage_name}: {node.count} threads "
                f"on {distinct} cores exceeds ~2 threads/core (Obs 2)",
                stream=sid,
                stage=stage_name,
            )
