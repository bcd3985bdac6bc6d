"""Typed plan deltas: the structured form of ``repro plan diff``.

A :class:`PlanDelta` is a small, serializable edit script over a
:class:`~repro.plan.ir.PipelinePlan` that ``repro plan diff --format
json`` derives by comparing two plan files, so drift between them is
machine-checkable.  The grammar names the edits a plan author makes to
a stage or to the codec:

- :class:`ScaleStage` — change a stage's worker count;
- :class:`MoveStage` — re-home a stage onto different NUMA domains;
- :class:`SetCodec` — swap the codec policy node.

Drift the grammar cannot express (workload shape, machine sets, fault
specs, ...) is carried as free-form ``notes``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterator

from repro.plan.ir import PipelinePlan, StageNode, StreamNode

__all__ = [
    "DeltaOp",
    "MoveStage",
    "PlanDelta",
    "ScaleStage",
    "SetCodec",
    "delta_to_dict",
    "plan_delta",
    "plan_drift",
]


# ---------------------------------------------------------------------------
# the ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleStage:
    """Set stage ``stage`` of stream ``stream`` to ``count`` workers."""

    stream: str
    stage: str
    count: int

    op = "scale_stage"

    def describe(self) -> str:
        return f"scale {self.stream}/{self.stage} -> x{self.count}"


@dataclass(frozen=True)
class MoveStage:
    """Re-home stage ``stage`` of stream ``stream`` onto ``sockets``."""

    stream: str
    stage: str
    sockets: tuple[int, ...]

    op = "move_stage"

    def describe(self) -> str:
        socks = "&".join(map(str, self.sockets))
        return f"move {self.stream}/{self.stage} -> N{socks}"


@dataclass(frozen=True)
class SetCodec:
    """Swap the plan's codec policy node (spec-string form)."""

    codec: str

    op = "set_codec"

    def describe(self) -> str:
        return f"codec -> {self.codec}"


DeltaOp = ScaleStage | MoveStage | SetCodec


@dataclass(frozen=True)
class PlanDelta:
    """An ordered edit script plus the reasoning that produced it."""

    ops: tuple[DeltaOp, ...] = ()
    #: Why the delta was derived (``"plan diff"`` by default).
    reason: str = ""
    #: Drift the op grammar can't express — informational only.
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.ops or self.notes)

    def describe(self) -> str:
        parts = [op.describe() for op in self.ops]
        parts.extend(f"note: {n}" for n in self.notes)
        body = "; ".join(parts) if parts else "empty"
        why = f" [{self.reason}]" if self.reason else ""
        return f"delta({body}){why}"


# ---------------------------------------------------------------------------
# serialization — the schema `repro plan diff --format json` emits
# ---------------------------------------------------------------------------


def _op_to_dict(op: DeltaOp) -> dict[str, Any]:
    out: dict[str, Any] = {"op": op.op}
    for f in fields(op):
        value = getattr(op, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def delta_to_dict(delta: PlanDelta) -> dict[str, Any]:
    """Encode a delta as the JSON schema ``plan diff`` emits."""
    doc: dict[str, Any] = {"ops": [_op_to_dict(op) for op in delta.ops]}
    if delta.reason:
        doc["reason"] = delta.reason
    if delta.notes:
        doc["notes"] = list(delta.notes)
    return doc


# ---------------------------------------------------------------------------
# the drift walk — what `repro plan diff` renders, as text or as a delta
# ---------------------------------------------------------------------------

#: One finding of the walk: the line ``repro plan diff`` prints, and the
#: op that would close the gap when the grammar can express it.
Drift = tuple[str, DeltaOp | None]


def _value_drift(label: str, a: Any, b: Any) -> Iterator[str]:
    """Lines locating where two values of one field differ, descending
    through dataclasses, mappings and sequences."""
    if a == b:
        return
    if is_dataclass(a) and type(a) is type(b):
        for f in fields(a):
            yield from _value_drift(
                f"{label}.{f.name}", getattr(a, f.name), getattr(b, f.name)
            )
    elif isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            yield f"{label}: {sorted(a)} != {sorted(b)}"
        for key in sorted(set(a) & set(b)):
            yield from _value_drift(f"{label}[{key!r}]", a[key], b[key])
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            yield f"{label}: {len(a)} entries != {len(b)}"
        for i, (av, bv) in enumerate(zip(a, b)):
            yield from _value_drift(f"{label}[{i}]", av, bv)
    else:
        yield f"{label}: {a!r} != {b!r}"


def _stage_drift(
    sid: str, a: tuple[StageNode, ...], b: tuple[StageNode, ...]
) -> Iterator[Drift]:
    a_stages = {n.kind: n for n in a}
    b_stages = {n.kind: n for n in b}
    for kind in sorted(set(a_stages) | set(b_stages), key=lambda k: k.value):
        at = f"stream {sid!r} stage {kind.value}"
        an, bn = a_stages.get(kind), b_stages.get(kind)
        if an is None or bn is None:
            which = "first" if bn is None else "second"
            yield f"{at}: only in {which} plan", None
            continue
        for f in fields(StageNode):
            av, bv = getattr(an, f.name), getattr(bn, f.name)
            if av == bv:
                continue
            if f.name == "count":
                yield (
                    f"{at}: count {av} != {bv}",
                    ScaleStage(sid, kind.value, bv),
                )
            elif f.name == "placement":
                line = f"{at}: placement {av.describe()} != {bv.describe()}"
                if bv.kind in ("socket", "sockets"):
                    yield line, MoveStage(sid, kind.value, bv.sockets)
                else:
                    yield f"{line} (not socket-addressable)", None
            else:
                for line in _value_drift(f"{at} {f.name}", av, bv):
                    yield line, None


def _stream_drift(a: StreamNode, b: StreamNode) -> Iterator[Drift]:
    sid = a.stream_id
    for f in fields(StreamNode):
        av, bv = getattr(a, f.name), getattr(b, f.name)
        if av == bv:
            continue
        if f.name == "stages":
            yield from _stage_drift(sid, av, bv)
        elif f.name == "faults":
            yield f"stream {sid!r}: fault specs differ", None
        else:
            for line in _value_drift(f"stream {sid!r} {f.name}", av, bv):
                yield line, None


def plan_drift(a: PipelinePlan, b: PipelinePlan) -> Iterator[Drift]:
    """Every difference between two plans, one :data:`Drift` each.

    Walks ``fields(PipelinePlan)`` and, per shared stream,
    ``fields(StreamNode)`` and ``fields(StageNode)``, so a field added
    to the IR is compared without an edit here.  Plan-level findings
    come first, then streams by id.
    """
    for f in fields(PipelinePlan):
        av, bv = getattr(a, f.name), getattr(b, f.name)
        if f.name == "streams" or av == bv:
            continue  # streams are matched by id, below
        if f.name == "codec":
            yield (
                f"codec: {av.describe()} != {bv.describe()}",
                SetCodec(str(bv.spec())),
            )
        else:
            for line in _value_drift(f.name, av, bv):
                yield line, None
    a_ids, b_ids = set(a.stream_ids()), set(b.stream_ids())
    for sid in sorted(a_ids - b_ids):
        yield f"stream {sid!r}: only in first plan", None
    for sid in sorted(b_ids - a_ids):
        yield f"stream {sid!r}: only in second plan", None
    for sid in sorted(a_ids & b_ids):
        yield from _stream_drift(a.stream(sid), b.stream(sid))


def plan_delta(
    a: PipelinePlan, b: PipelinePlan, *, reason: str = "plan diff"
) -> PlanDelta:
    """The structured delta taking plan ``a`` toward plan ``b``.

    Expressible drift (stage counts, socket placements, codec node)
    becomes ops; everything else becomes notes.  An empty
    delta (no ops, no notes) means the plans agree on every field.
    """
    drift = list(plan_drift(a, b))
    return PlanDelta(
        ops=tuple(op for _, op in drift if op is not None),
        reason=reason,
        notes=tuple(line for line, op in drift if op is None),
    )
