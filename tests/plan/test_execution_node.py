"""ExecutionNode: the plan's substrate-execution policy.

The node rides the same v3 document as everything else, but is
*omitted when default* so pre-existing plans round-trip byte-stable —
an old plan file and a new default plan serialize identically.
"""

import dataclasses

import pytest

from repro.plan.ir import ExecutionNode
from repro.plan.lower import lower_live
from repro.plan.serialize import plan_from_dict, plan_from_json, plan_to_dict, plan_to_json
from repro.plan.validate import validate_plan
from repro.util.errors import ConfigurationError


def with_execution(plan, **kwargs):
    return dataclasses.replace(plan, execution=ExecutionNode(**kwargs))


class TestDefaults:
    def test_plans_default_to_thread_mode(self, generated_plan):
        assert generated_plan.execution == ExecutionNode()
        assert generated_plan.execution.mode == "thread"
        assert generated_plan.execution.is_default

    def test_default_is_omitted_from_the_document(self, generated_plan):
        assert "execution" not in plan_to_dict(generated_plan)

    def test_default_round_trip_is_byte_stable(self, generated_plan):
        text = plan_to_json(generated_plan)
        assert plan_to_json(plan_from_json(text)) == text


class TestRoundTrip:
    def test_process_node_survives(self, generated_plan):
        plan = with_execution(
            generated_plan,
            mode="process",
            domains=2,
            ring_capacity=16,
            ring_slot_bytes=1 << 16,
        )
        doc = plan_to_dict(plan)
        assert doc["execution"] == {
            "mode": "process",
            "domains": 2,
            "ring_capacity": 16,
            "ring_slot_bytes": 1 << 16,
        }
        back = plan_from_dict(doc)
        assert back.execution == plan.execution

    def test_defaulted_fields_are_omitted(self, generated_plan):
        plan = with_execution(generated_plan, mode="process")
        assert plan_to_dict(plan)["execution"] == {"mode": "process"}
        assert plan_from_dict(plan_to_dict(plan)).execution == plan.execution

    def test_describe_mentions_execution_only_when_interesting(
        self, generated_plan
    ):
        assert "execution:" not in generated_plan.describe()
        plan = with_execution(generated_plan, mode="process", domains=4)
        assert "process" in plan.describe()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="fiber"),
            dict(domains=-1),
            dict(ring_capacity=0),
            dict(ring_slot_bytes=32),
        ],
    )
    def test_bad_execution_flagged(self, generated_plan, kwargs):
        plan = with_execution(generated_plan, **kwargs)
        diags = validate_plan(plan)
        assert any(d.code == "bad-execution" for d in diags.errors)

    def test_valid_process_node_passes(self, generated_plan):
        plan = with_execution(generated_plan, mode="process", domains=2)
        assert not [
            d for d in validate_plan(plan).errors
            if d.code == "bad-execution"
        ]


class TestLowering:
    def test_execution_reaches_live_config(self, generated_plan):
        plan = with_execution(
            generated_plan, mode="process", domains=3, ring_capacity=32
        )
        cfg = lower_live(plan).config
        assert cfg.execution_mode == "process"
        assert cfg.process_domains == 3
        assert cfg.ring_capacity == 32

    def test_thread_default_lowers_to_thread(self, generated_plan):
        cfg = lower_live(generated_plan).config
        assert cfg.execution_mode == "thread"
        assert cfg.process_domains == 0


class TestReceiverPlane:
    """The receiver-plane policy: shard count and hashing.  The plane
    itself is no longer a choice — only documents may still name it."""

    def test_defaults_are_omitted_from_the_document(self, generated_plan):
        plan = with_execution(generated_plan, mode="process")
        assert "receiver_mode" not in plan_to_dict(plan)["execution"]
        assert "receiver_shards" not in plan_to_dict(plan)["execution"]

    def test_round_trip(self, generated_plan):
        plan = with_execution(generated_plan, receiver_shards=4)
        doc = plan_to_dict(plan)
        assert doc["execution"] == {"mode": "thread", "receiver_shards": 4}
        assert plan_from_dict(doc).execution == plan.execution

    def test_describe_mentions_non_default_receiver(self, generated_plan):
        plan = with_execution(generated_plan, receiver_shards=4)
        assert "recv x4" in plan.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(receiver_mode="poll"), dict(receiver_shards=-1)],
    )
    def test_bad_receiver_policy_flagged(self, generated_plan, kwargs):
        """A document with a bad receiver policy is refused, whether
        the loader (plane name) or the validator (shards) catches it."""
        doc = plan_to_dict(generated_plan)
        doc["execution"] = {"mode": "thread", **kwargs}
        with pytest.raises(ConfigurationError):
            validate_plan(plan_from_dict(doc)).raise_if_errors()

    def test_outside_document_may_name_the_eventloop_plane(
        self, generated_plan
    ):
        """Plan files written while the plane was a choice still load:
        ``"eventloop"`` is accepted and never re-emitted."""
        doc = plan_to_dict(with_execution(generated_plan, receiver_shards=2))
        doc["execution"]["receiver_mode"] = "eventloop"
        plan = plan_from_dict(doc)
        assert plan.execution == ExecutionNode(receiver_shards=2)
        assert "receiver_mode" not in plan_to_dict(plan)["execution"]
        assert validate_plan(plan).ok

    def test_removed_thread_plane_is_refused_by_name(self, generated_plan):
        """Not a KeyError, not a silent fallback: a bad-execution
        diagnostic that names the removed plane."""
        doc = plan_to_dict(generated_plan)
        doc["execution"] = {"mode": "thread", "receiver_mode": "threads"}
        with pytest.raises(ConfigurationError, match="removed") as info:
            plan_from_dict(doc)
        assert '"threads"' in str(info.value)
        assert "bad-execution" in str(info.value)

    def test_receiver_policy_reaches_live_config(self, generated_plan):
        plan = with_execution(generated_plan, receiver_shards=3)
        cfg = lower_live(plan).config
        assert cfg.receiver_shards == 3

    def test_default_lowers_to_eventloop_auto(self, generated_plan):
        cfg = lower_live(generated_plan).config
        assert cfg.receiver_shards == 0
        assert not hasattr(cfg, "receiver_mode")


class TestStreamShard:
    def test_deterministic_across_processes(self):
        from repro.plan.ir import stream_shard

        # crc32-based, not hash()-based: stable under PYTHONHASHSEED.
        assert stream_shard("stream-000", 8) == stream_shard("stream-000", 8)
        assert stream_shard("stream-000", 8) in range(8)

    def test_single_shard_short_circuits(self):
        from repro.plan.ir import stream_shard

        assert stream_shard("anything", 1) == 0
        assert stream_shard("anything", 0) == 0

    def test_spreads_streams(self):
        from repro.plan.ir import stream_shard

        hits = {stream_shard(f"s-{i:04d}", 8) for i in range(256)}
        assert hits == set(range(8))
