"""PlanDelta: the typed re-plan grammar shared by controller and diff."""

import dataclasses

import pytest

from repro.core.config import StageKind
from repro.plan.delta import (
    MoveStage,
    PlanDelta,
    ScaleStage,
    SetCodec,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    plan_delta,
)
from repro.plan.ingest import plan_from_scenario
from repro.util.errors import ConfigurationError, ValidationError


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


class TestApply:
    def test_scale_stage_is_immutable_edit(self, plan):
        result = apply_delta(plan, PlanDelta(
            ops=(ScaleStage("s", "compress", 6),)
        ))
        assert result.ok
        assert result.plan.stream("s").stage(StageKind.COMPRESS).count == 6
        assert plan.stream("s").stage(StageKind.COMPRESS).count == 4

    def test_move_stage_rehomes_placement(self, plan):
        result = apply_delta(plan, PlanDelta(
            ops=(MoveStage("s", "compress", (1,)),)
        ))
        node = result.plan.stream("s").stage(StageKind.COMPRESS)
        assert node.placement.kind == "socket"
        assert node.placement.sockets == (1,)

    def test_set_codec(self, plan):
        result = apply_delta(plan, PlanDelta(
            ops=(SetCodec("zlib:level=6"),)
        ))
        assert str(result.plan.codec.spec()) == "zlib:level=6"

    def test_ops_apply_in_order(self, plan):
        result = apply_delta(plan, PlanDelta(ops=(
            ScaleStage("s", "compress", 2),
            ScaleStage("s", "compress", 8),
        )))
        assert result.plan.stream("s").stage(StageKind.COMPRESS).count == 8

    def test_unknown_stream_raises(self, plan):
        with pytest.raises(ValidationError, match="delta references"):
            apply_delta(plan, PlanDelta(
                ops=(ScaleStage("nope", "compress", 2),)
            ))

    def test_unknown_stage_kind_raises(self, plan):
        with pytest.raises(ValidationError, match="unknown stage kind"):
            apply_delta(plan, PlanDelta(
                ops=(ScaleStage("s", "warp", 2),)
            ))

    def test_missing_stage_raises(self, plan):
        # The hand scenario has no ingest stage to edit.
        with pytest.raises(ValidationError, match="no ingest stage"):
            apply_delta(plan, PlanDelta(
                ops=(ScaleStage("s", "ingest", 2),)
            ))

    def test_empty_move_rejected(self, plan):
        with pytest.raises(ValidationError, match=">= 1 socket"):
            apply_delta(plan, PlanDelta(ops=(MoveStage("s", "send", ()),)))

    def test_bad_result_revalidated_strict(self, plan):
        # count=0 passes the op but fails the validate pass, exactly
        # like a hand-broken plan file would.
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            apply_delta(plan, PlanDelta(
                ops=(ScaleStage("s", "compress", 0),)
            ))

    def test_bad_result_collected_when_lenient(self, plan):
        result = apply_delta(
            plan,
            PlanDelta(ops=(ScaleStage("s", "compress", 0),)),
            strict=False,
        )
        assert not result.ok
        assert any(
            d.code == "bad-stage-count" for d in result.diagnostics.errors
        )

    def test_notes_never_apply(self, plan):
        result = apply_delta(plan, PlanDelta(notes=("seed differs",)))
        assert result.ok
        # Only the standard passes ran — an empty-ops delta is a no-op
        # on every axis the delta grammar can express.
        baseline = apply_delta(plan, PlanDelta())
        assert result.plan == baseline.plan
        assert not plan_delta(result.plan, baseline.plan)


class TestSerialization:
    def test_round_trip_all_ops(self):
        delta = PlanDelta(
            ops=(
                ScaleStage("s1", "compress", 6),
                MoveStage("s1", "send", (0, 1)),
                SetCodec("zlib:level=1"),
            ),
            reason="backpressure",
            notes=("num_chunks differs",),
        )
        assert delta_from_dict(delta_to_dict(delta)) == delta

    def test_dict_schema_shape(self):
        doc = delta_to_dict(PlanDelta(ops=(ScaleStage("s", "send", 2),)))
        assert doc == {
            "ops": [{"op": "scale_stage", "stream": "s",
                     "stage": "send", "count": 2}]
        }

    def test_empty_delta_omits_optional_keys(self):
        assert delta_to_dict(PlanDelta()) == {"ops": []}

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown delta keys"):
            delta_from_dict({"ops": [], "extra": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError, match="unknown delta op"):
            delta_from_dict({"ops": [{"op": "teleport"}]})
        with pytest.raises(ValidationError, match="unknown delta op"):
            delta_from_dict({"ops": [{}]})
        # The batch knob's op went with the knob.
        with pytest.raises(ValidationError, match="'set_batch_frames'"):
            delta_from_dict({"ops": [{"op": "set_batch_frames",
                                      "stream": "s", "batch_frames": 4}]})

    def test_malformed_op_fields_rejected(self):
        with pytest.raises(ValidationError, match="bad scale_stage op"):
            delta_from_dict({"ops": [{"op": "scale_stage", "bogus": 1}]})

    def test_sockets_decode_to_tuple(self):
        delta = delta_from_dict({
            "ops": [{"op": "move_stage", "stream": "s",
                     "stage": "send", "sockets": [0, 1]}]
        })
        assert delta.ops[0].sockets == (0, 1)


class TestPlanDiffDerivation:
    def test_identical_plans_empty(self, plan):
        delta = plan_delta(plan, plan)
        assert not delta
        assert delta.ops == ()
        assert delta.notes == ()

    def test_applying_derived_delta_converges(self, plan):
        target = apply_delta(plan, PlanDelta(ops=(
            ScaleStage("s", "compress", 6),
            MoveStage("s", "decompress", (1,)),
            SetCodec("zlib:level=6"),
        ))).plan
        delta = plan_delta(plan, target)
        kinds = {op.op for op in delta.ops}
        assert kinds == {"scale_stage", "move_stage", "set_codec"}
        again = apply_delta(plan, delta).plan
        assert not plan_delta(again, target)

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
