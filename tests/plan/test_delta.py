"""PlanDelta: the structured form of ``repro plan diff``."""

import dataclasses

import pytest

from repro.core.config import StageKind
from repro.core.placement import PlacementSpec
from repro.plan.delta import (
    MoveStage,
    PlanDelta,
    ScaleStage,
    SetCodec,
    delta_to_dict,
    plan_delta,
)
from repro.plan.ingest import plan_from_scenario
from repro.plan.ir import CodecNode


@pytest.fixture
def plan(hand_scenario):
    return plan_from_scenario(hand_scenario())


class TestOps:
    def test_describe(self):
        assert ScaleStage("s", "compress", 6).describe() == \
            "scale s/compress -> x6"
        assert MoveStage("s", "send", (0, 1)).describe() == \
            "move s/send -> N0&1"
        assert SetCodec("zlib:level=1").describe() == "codec -> zlib:level=1"

    def test_delta_truthiness(self):
        assert not PlanDelta()
        assert PlanDelta(ops=(SetCodec("null"),))
        assert PlanDelta(notes=("workload differs",))  # notes alone count

    def test_delta_describe(self):
        delta = PlanDelta(
            ops=(ScaleStage("s", "compress", 2),),
            reason="backpressure on sendq",
            notes=("seed differs",),
        )
        text = delta.describe()
        assert "scale s/compress -> x2" in text
        assert "note: seed differs" in text
        assert "[backpressure on sendq]" in text
        assert PlanDelta().describe() == "delta(empty)"


class TestSerialization:
    def test_dict_schema_shape(self):
        doc = delta_to_dict(PlanDelta(ops=(ScaleStage("s", "send", 2),)))
        assert doc == {
            "ops": [{"op": "scale_stage", "stream": "s",
                     "stage": "send", "count": 2}]
        }

    def test_empty_delta_omits_optional_keys(self):
        assert delta_to_dict(PlanDelta()) == {"ops": []}


class TestPlanDiffDerivation:
    def test_identical_plans_empty(self, plan):
        delta = plan_delta(plan, plan)
        assert not delta
        assert delta.ops == ()
        assert delta.notes == ()

    def test_expressible_drift_becomes_ops(self, plan):
        stream = plan.stream("s")
        stages = tuple(
            dataclasses.replace(n, count=6)
            if n.kind == StageKind.COMPRESS
            else dataclasses.replace(n, placement=PlacementSpec.socket(1))
            if n.kind == StageKind.DECOMPRESS
            else n
            for n in stream.stages
        )
        target = dataclasses.replace(
            plan.with_streams([dataclasses.replace(stream, stages=stages)]),
            codec=CodecNode.from_spec("zlib:level=6"),
        )
        delta = plan_delta(plan, target)
        assert delta.ops == (
            SetCodec("zlib:level=6"),
            ScaleStage("s", "compress", 6),
            MoveStage("s", "decompress", (1,)),
        )
        assert delta.notes == ()

    def test_inexpressible_drift_becomes_notes(self, plan):
        other = dataclasses.replace(plan, seed=99, warmup_chunks=7)
        delta = plan_delta(plan, other)
        assert delta.ops == ()
        assert any("seed" in n for n in delta.notes)
        assert any("warmup_chunks" in n for n in delta.notes)

    def test_stream_membership_drift_noted(self, plan):
        other = plan.with_streams([])
        delta = plan_delta(plan, other)
        assert delta.ops == ()
        assert any("only in first plan" in n for n in delta.notes)

    def test_reason_passthrough(self, plan):
        delta = plan_delta(plan, plan, reason="diff a -> b")
        assert delta.reason == "diff a -> b"
