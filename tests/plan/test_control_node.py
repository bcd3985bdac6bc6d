"""ControlNode: the plan's closed-loop autotuning policy.

Like ExecutionNode and CodecNode, the node rides the v3 document but is
*omitted when default* — a plan that never opted into autotuning
serializes byte-identically to one written before the node existed.
"""

import dataclasses

import pytest

from repro.plan.ir import ControlNode
from repro.plan.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.plan.validate import validate_plan


def with_control(plan, **kwargs):
    return dataclasses.replace(plan, control=ControlNode(**kwargs))


class TestDefaults:
    def test_plans_default_to_disabled(self, generated_plan):
        assert generated_plan.control == ControlNode()
        assert not generated_plan.control.enabled
        assert generated_plan.control.is_default

    def test_default_is_omitted_from_the_document(self, generated_plan):
        assert "control" not in plan_to_dict(generated_plan)

    def test_default_round_trip_is_byte_stable(self, generated_plan):
        text = plan_to_json(generated_plan)
        assert plan_to_json(plan_from_json(text)) == text

    def test_non_default_node_is_not_default(self):
        assert not ControlNode(enabled=True).is_default
        assert not ControlNode(interval=1.0).is_default


class TestRoundTrip:
    def test_enabled_node_survives(self, generated_plan):
        plan = with_control(
            generated_plan,
            enabled=True,
            interval=0.25,
            cooldown=1.0,
            min_workers=2,
            max_workers=6,
            scale_down_after=3,
        )
        doc = plan_to_dict(plan)
        assert doc["control"] == {
            "enabled": True,
            "interval": 0.25,
            "cooldown": 1.0,
            "min_workers": 2,
            "max_workers": 6,
            "scale_down_after": 3,
        }
        assert plan_from_dict(doc).control == plan.control

    def test_defaulted_fields_are_omitted(self, generated_plan):
        plan = with_control(generated_plan, enabled=True)
        assert plan_to_dict(plan)["control"] == {"enabled": True}
        assert plan_from_dict(plan_to_dict(plan)).control == plan.control

    def test_enabled_round_trip_is_byte_stable(self, generated_plan):
        plan = with_control(generated_plan, enabled=True, cooldown=0.5)
        text = plan_to_json(plan)
        assert plan_to_json(plan_from_json(text)) == text


class TestDescribe:
    def test_disabled_says_so(self):
        assert ControlNode().describe() == "disabled"

    def test_enabled_mentions_the_knobs(self):
        text = ControlNode(
            enabled=True, interval=0.25, cooldown=1.0,
            min_workers=1, max_workers=6,
        ).describe()
        assert "every 0.25s" in text
        assert "cooldown 1s" in text
        assert "workers 1..6" in text
        assert "quiet polls" not in text  # scale-down disabled

    def test_scale_down_mentioned_when_enabled(self):
        text = ControlNode(enabled=True, scale_down_after=5).describe()
        assert "down after 5 quiet polls" in text


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interval=0.0),
            dict(cooldown=-1.0),
            dict(min_workers=0),
            dict(min_workers=4, max_workers=2),
            dict(scale_down_after=-1),
            dict(max_workers=0),
        ],
    )
    def test_bad_control_flagged(self, generated_plan, kwargs):
        plan = with_control(generated_plan, **kwargs)
        diags = validate_plan(plan)
        assert any(d.code == "bad-control" for d in diags.errors)

    def test_valid_node_passes(self, generated_plan):
        plan = with_control(
            generated_plan, enabled=True, interval=0.1, scale_down_after=2
        )
        assert not [
            d for d in validate_plan(plan).errors
            if d.code == "bad-control"
        ]
