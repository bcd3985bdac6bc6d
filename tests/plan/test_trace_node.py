"""TraceNode: the plan's flow-tracing sampling policy.

Like ExecutionNode and CodecNode, the node rides the v3
document but is *omitted when default* — a plan that never opted into
tracing serializes byte-identically to one written before the node
existed.
"""

import dataclasses

import pytest

from repro.plan.ir import TraceNode
from repro.plan.lower import lower_live
from repro.plan.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.plan.validate import validate_plan
from repro.util.errors import ValidationError


def with_trace(plan, **kwargs):
    return dataclasses.replace(plan, trace=TraceNode(**kwargs))


class TestDefaults:
    def test_plans_default_to_disabled(self, generated_plan):
        assert generated_plan.trace == TraceNode()
        assert not generated_plan.trace.enabled
        assert generated_plan.trace.is_default

    def test_default_is_omitted_from_the_document(self, generated_plan):
        assert "trace" not in plan_to_dict(generated_plan)

    def test_default_round_trip_is_byte_stable(self, generated_plan):
        text = plan_to_json(generated_plan)
        assert plan_to_json(plan_from_json(text)) == text

    def test_non_default_node_is_not_default(self):
        assert not TraceNode(sample=64).is_default
        assert not TraceNode(per_stream_cap=8).is_default


class TestRoundTrip:
    def test_enabled_node_survives(self, generated_plan):
        plan = with_trace(generated_plan, sample=64, per_stream_cap=100)
        doc = plan_to_dict(plan)
        assert doc["trace"] == {"sample": 64, "per_stream_cap": 100}
        assert plan_from_dict(doc).trace == plan.trace

    def test_defaulted_fields_are_omitted(self, generated_plan):
        plan = with_trace(generated_plan, sample=8)
        assert plan_to_dict(plan)["trace"] == {"sample": 8}
        assert plan_from_dict(plan_to_dict(plan)).trace == plan.trace

    def test_enabled_round_trip_is_byte_stable(self, generated_plan):
        plan = with_trace(generated_plan, sample=16, per_stream_cap=4)
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text

    def test_unknown_trace_keys_rejected(self, generated_plan):
        doc = plan_to_dict(with_trace(generated_plan, sample=4))
        doc["trace"]["rate"] = 2
        with pytest.raises(ValidationError, match="unknown trace keys"):
            plan_from_dict(doc)


class TestDescribe:
    def test_disabled_says_so(self):
        assert TraceNode().describe() == "disabled"

    def test_enabled_names_the_rate_and_cap(self):
        assert TraceNode(sample=64).describe() == "1-in-64 head sampling"
        text = TraceNode(sample=8, per_stream_cap=100).describe()
        assert "1-in-8" in text and "cap 100/stream" in text

    def test_non_default_node_appears_in_plan_describe(self, generated_plan):
        assert "trace:" not in generated_plan.describe()
        plan = with_trace(generated_plan, sample=4)
        assert "1-in-4 head sampling" in plan.describe()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sample=-1),
            dict(per_stream_cap=-1),
            dict(per_stream_cap=10),  # cap without a sample rate
        ],
    )
    def test_bad_trace_flagged(self, generated_plan, kwargs):
        plan = with_trace(generated_plan, **kwargs)
        diags = validate_plan(plan)
        assert any(d.code == "bad-trace" for d in diags.errors)

    def test_valid_node_passes(self, generated_plan):
        plan = with_trace(generated_plan, sample=64, per_stream_cap=10)
        assert not [
            d for d in validate_plan(plan).errors if d.code == "bad-trace"
        ]


class TestLowering:
    def test_knobs_reach_live_config(self, generated_plan):
        plan = with_trace(generated_plan, sample=32, per_stream_cap=6)
        lowered = lower_live(plan)
        assert lowered.config.trace_sample == 32
        assert lowered.config.trace_per_stream_cap == 6

    def test_default_lowers_to_tracing_off(self, generated_plan):
        lowered = lower_live(generated_plan)
        assert lowered.config.trace_sample == 0
        assert lowered.config.trace_per_stream_cap == 0
