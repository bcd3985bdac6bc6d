"""Plan (de)serialization — scenario format v3.

A v3 document is a superset of the v2 scenario document: the same
machine/path/cost/stream encoding (reused from
:mod:`repro.core.serialize`), plus plan-level provenance (``policy``,
``metadata``) and per-stage ``rationale`` strings.  Older documents
stay loadable — :func:`plan_from_dict` accepts v1 and v2 by decoding
the scenario and lifting it, and :func:`repro.core.serialize.load_scenario`
accepts v3 by delegating here and lowering.  One file format, either
direction.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.config import StageKind
from repro.core.params import CostModel
from repro.core.serialize import (
    FORMAT,
    _cost_to_dict,
    _fault_from_dict,
    _fault_to_dict,
    _machine_from_dict,
    _machine_to_dict,
    _path_from_dict,
    _path_to_dict,
    _placement_from_dict,
    _placement_to_dict,
)
from repro.plan.diagnostics import Diagnostic
from repro.plan.ir import (
    REMOVED_RECEIVER_PLANE,
    STAGE_ORDER,
    CodecNode,
    ControlNode,
    TraceNode,
    ExecutionNode,
    PipelinePlan,
    QueueEdge,
    StageNode,
    StreamNode,
)
from repro.util.errors import ConfigurationError, ValidationError

#: v3 adds plan-level policy/metadata and per-stage rationale.
PLAN_VERSION = 3


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def plan_to_dict(plan: PipelinePlan) -> dict[str, Any]:
    """Encode a plan as a JSON-serializable v3 document.

    The ``execution`` and ``codec`` policy nodes are emitted only when
    they differ from the defaults — a plan that never opted into
    process mode or a non-default codec encodes byte-identically to
    one written before the nodes existed, keeping v3 files stable in
    both directions.
    """
    doc = {
        "format": FORMAT,
        "version": PLAN_VERSION,
        "name": plan.name,
        "policy": plan.policy,
        "metadata": dict(plan.metadata),
        "machines": {
            n: _machine_to_dict(m) for n, m in plan.machines.items()
        },
        "paths": {n: _path_to_dict(p) for n, p in plan.paths.items()},
        "streams": [_stream_to_dict(s) for s in plan.streams],
        "cost": _cost_to_dict(plan.cost),
        "seed": plan.seed,
        "warmup_chunks": plan.warmup_chunks,
        "csw_penalty": plan.csw_penalty,
        "wake_affinity": plan.wake_affinity,
        "migrate_prob": plan.migrate_prob,
        "spill_threshold": plan.spill_threshold,
        "max_sim_time": plan.max_sim_time,
    }
    if not plan.execution.is_default:
        doc["execution"] = _execution_to_dict(plan.execution)
    if not plan.codec.is_default:
        doc["codec"] = _codec_to_dict(plan.codec)
    if not plan.control.is_default:
        doc["control"] = _control_to_dict(plan.control)
    if not plan.trace.is_default:
        doc["trace"] = _trace_to_dict(plan.trace)
    return doc


def _codec_to_dict(node: CodecNode) -> dict[str, Any]:
    out: dict[str, Any] = {"name": node.name}
    if node.params:
        out["params"] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in node.params
        }
    if node.allowed:
        out["allowed"] = list(node.allowed)
    if node.probe_interval:
        out["probe_interval"] = node.probe_interval
    return out


_CONTROL_FIELDS = (
    "enabled",
    "interval",
    "cooldown",
    "min_workers",
    "max_workers",
    "max_batch_frames",
    "scale_down_after",
)


def _control_to_dict(node: ControlNode) -> dict[str, Any]:
    default = ControlNode()
    return {
        name: getattr(node, name)
        for name in _CONTROL_FIELDS
        if getattr(node, name) != getattr(default, name)
    }


_TRACE_FIELDS = (
    "sample",
    "per_stream_cap",
)


def _trace_to_dict(node: TraceNode) -> dict[str, Any]:
    default = TraceNode()
    return {
        name: getattr(node, name)
        for name in _TRACE_FIELDS
        if getattr(node, name) != getattr(default, name)
    }


def _execution_to_dict(node: ExecutionNode) -> dict[str, Any]:
    out: dict[str, Any] = {"mode": node.mode}
    default = ExecutionNode()
    if node.domains != default.domains:
        out["domains"] = node.domains
    if node.ring_capacity != default.ring_capacity:
        out["ring_capacity"] = node.ring_capacity
    if node.ring_slot_bytes != default.ring_slot_bytes:
        out["ring_slot_bytes"] = node.ring_slot_bytes
    if node.receiver_shards != default.receiver_shards:
        out["receiver_shards"] = node.receiver_shards
    return out


def _stage_node_to_dict(node: StageNode) -> dict[str, Any]:
    out: dict[str, Any] = {
        "count": node.count,
        "placement": _placement_to_dict(node.placement),
    }
    if node.rationale:
        out["rationale"] = node.rationale
    return out


def _edge_to_dict(edge: QueueEdge) -> dict[str, Any]:
    out: dict[str, Any] = {
        "src": edge.src,
        "dst": edge.dst,
        "capacity": edge.capacity,
    }
    if edge.per_connection:
        out["per_connection"] = True
    return out


def _stream_to_dict(s: StreamNode) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "stream_id": s.stream_id,
        "sender": s.sender,
        "receiver": s.receiver,
        "path": s.path,
        "num_chunks": s.num_chunks,
        "chunk_bytes": s.chunk_bytes,
        "ratio_mean": s.ratio_mean,
        "ratio_sigma": s.ratio_sigma,
        "source_socket": s.source_socket,
        "queue_capacity": s.queue_capacity,
        "batch_frames": s.batch_frames,
        "micro": s.micro,
        "faults": [_fault_to_dict(f) for f in s.faults],
        "stages": {
            kind.value: (
                _stage_node_to_dict(node)
                if (node := s.stage(kind)) is not None
                else None
            )
            for kind in STAGE_ORDER
        },
    }
    if s.edges:
        doc["edges"] = [_edge_to_dict(e) for e in s.edges]
    return doc


def plan_to_json(plan: PipelinePlan, *, indent: int = 2) -> str:
    """Encode a plan as a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent)


def save_plan(plan: PipelinePlan, path: str) -> None:
    """Write a plan file (scenario format v3)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(plan_to_json(plan))
        f.write("\n")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

_KNOWN_KEYS = {
    "format", "version", "name", "policy", "metadata", "machines", "paths",
    "streams", "cost", "seed", "warmup_chunks", "csw_penalty",
    "wake_affinity", "migrate_prob", "spill_threshold", "max_sim_time",
    "execution", "codec", "control", "trace",
}


def plan_from_dict(doc: dict[str, Any]) -> PipelinePlan:
    """Decode a plan from any accepted document version.

    v3 documents decode natively; v1/v2 scenario documents are decoded
    by the scenario reader and lifted into the IR, so every historical
    file keeps loading through the plan layer.
    """
    if doc.get("format") != FORMAT:
        raise ValidationError(
            f"not a {FORMAT} document (format={doc.get('format')!r})"
        )
    version = doc.get("version")
    if version in (1, 2):
        from repro.core.serialize import scenario_from_dict
        from repro.plan.ingest import plan_from_scenario

        return plan_from_scenario(scenario_from_dict(doc))
    if version != PLAN_VERSION:
        raise ValidationError(
            f"unsupported scenario version {version!r}"
        )
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(f"unknown plan keys: {sorted(unknown)}")
    policy = doc.get("policy", "manual")
    return PipelinePlan(
        name=doc["name"],
        machines={
            n: _machine_from_dict(d) for n, d in doc["machines"].items()
        },
        paths={n: _path_from_dict(d) for n, d in doc["paths"].items()},
        streams=[_stream_from_dict(d) for d in doc["streams"]],
        cost=CostModel(**doc["cost"]),
        seed=doc["seed"],
        warmup_chunks=doc["warmup_chunks"],
        csw_penalty=doc["csw_penalty"],
        wake_affinity=doc["wake_affinity"],
        migrate_prob=doc["migrate_prob"],
        spill_threshold=doc["spill_threshold"],
        max_sim_time=doc["max_sim_time"],
        policy=policy,
        metadata={str(k): str(v) for k, v in doc.get("metadata", {}).items()},
        execution=_execution_from_dict(doc.get("execution")),
        codec=_codec_from_dict(doc.get("codec")),
        control=_control_from_dict(doc.get("control")),
        trace=_trace_from_dict(doc.get("trace")),
    )


def _codec_from_dict(d: dict[str, Any] | None) -> CodecNode:
    if d is None:
        return CodecNode()
    unknown = set(d) - {"name", "params", "allowed", "probe_interval"}
    if unknown:
        raise ValidationError(f"unknown codec keys: {sorted(unknown)}")
    params = {
        str(k): tuple(v) if isinstance(v, list) else v
        for k, v in d.get("params", {}).items()
    }
    return CodecNode(
        name=d.get("name", "zlib"),
        params=tuple(sorted(params.items())),
        allowed=tuple(d.get("allowed", ())),
        probe_interval=d.get("probe_interval", 0),
    )


def _control_from_dict(d: dict[str, Any] | None) -> ControlNode:
    if d is None:
        return ControlNode()
    unknown = set(d) - set(_CONTROL_FIELDS)
    if unknown:
        raise ValidationError(f"unknown control keys: {sorted(unknown)}")
    default = ControlNode()
    return ControlNode(
        **{
            name: d.get(name, getattr(default, name))
            for name in _CONTROL_FIELDS
        }
    )


def _trace_from_dict(d: dict[str, Any] | None) -> TraceNode:
    if d is None:
        return TraceNode()
    unknown = set(d) - set(_TRACE_FIELDS)
    if unknown:
        raise ValidationError(f"unknown trace keys: {sorted(unknown)}")
    default = TraceNode()
    return TraceNode(
        **{
            name: d.get(name, getattr(default, name))
            for name in _TRACE_FIELDS
        }
    )


def _execution_from_dict(d: dict[str, Any] | None) -> ExecutionNode:
    if d is None:
        return ExecutionNode()
    # Documents written before the thread-per-connection receiver plane
    # was removed may still name the plane; the surviving one is
    # accepted (and never re-emitted), anything else is refused here
    # because the IR no longer has a field to validate later.
    plane = d.get("receiver_mode", "eventloop")
    if plane != "eventloop":
        raise ConfigurationError(
            Diagnostic(
                "error",
                "bad-execution",
                f"execution receiver plane {plane!r} is not supported: "
                f"{REMOVED_RECEIVER_PLANE} — drop the key",
            ).render()
        )
    default = ExecutionNode()
    return ExecutionNode(
        mode=d.get("mode", default.mode),
        domains=d.get("domains", default.domains),
        ring_capacity=d.get("ring_capacity", default.ring_capacity),
        ring_slot_bytes=d.get("ring_slot_bytes", default.ring_slot_bytes),
        receiver_shards=d.get("receiver_shards", default.receiver_shards),
    )


def _stage_node_from_dict(
    kind: StageKind, d: dict[str, Any]
) -> StageNode:
    return StageNode(
        kind=kind,
        count=d["count"],
        placement=_placement_from_dict(d["placement"]),
        rationale=d.get("rationale", ""),
    )


def _edge_from_dict(d: dict[str, Any]) -> QueueEdge:
    return QueueEdge(
        src=d["src"],
        dst=d["dst"],
        capacity=d["capacity"],
        per_connection=d.get("per_connection", False),
    )


def _stream_from_dict(d: dict[str, Any]) -> StreamNode:
    stages_doc = d.get("stages", {})
    nodes = tuple(
        _stage_node_from_dict(kind, stage_doc)
        for kind in STAGE_ORDER
        if (stage_doc := stages_doc.get(kind.value)) is not None
    )
    return StreamNode(
        stream_id=d["stream_id"],
        sender=d["sender"],
        receiver=d["receiver"],
        path=d["path"],
        num_chunks=d["num_chunks"],
        chunk_bytes=d["chunk_bytes"],
        ratio_mean=d["ratio_mean"],
        ratio_sigma=d["ratio_sigma"],
        source_socket=d.get("source_socket"),
        queue_capacity=d["queue_capacity"],
        batch_frames=d.get("batch_frames", 1),
        micro=d.get("micro", False),
        faults=tuple(_fault_from_dict(f) for f in d.get("faults", [])),
        stages=nodes,
        edges=tuple(_edge_from_dict(e) for e in d.get("edges", [])),
    )


def plan_from_json(text: str) -> PipelinePlan:
    """Decode a plan from a JSON string (any accepted version)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed plan JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("plan JSON must be an object")
    return plan_from_dict(doc)


def load_plan(path: str) -> PipelinePlan:
    """Read a plan file (v1/v2 scenario files lift transparently)."""
    with open(path, encoding="utf-8") as f:
        return plan_from_json(f.read())
