"""Plan serialization: v3 round-trips, v1/v2 fixtures keep loading."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FaultSpec, StageConfig
from repro.plan.serialize import (
    load_scenario,
    scenario_from_json,
    scenario_to_dict,
)
from repro.plan.diff import diff_plans
from repro.plan.ingest import plan_from_scenario
from repro.plan.lower import lower_sim
from repro.plan.passes import run_passes
from repro.plan.serialize import (
    PLAN_VERSION,
    load_plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    save_plan,
)
from repro.util.errors import ValidationError

FIXTURES = Path(__file__).parent / "fixtures"


class TestV3RoundTrip:
    def test_generated_plan_round_trips(self, generated_plan):
        plan = run_passes(generated_plan).plan
        back = plan_from_json(plan_to_json(plan))
        assert diff_plans(plan, back) == []
        assert plan_to_dict(back) == plan_to_dict(plan)

    def test_policy_metadata_rationale_survive(self, generated_plan):
        plan = run_passes(generated_plan).plan
        back = plan_from_json(plan_to_json(plan))
        assert back.policy == plan.policy
        assert back.metadata == plan.metadata
        for s, bs in zip(plan.streams, back.streams):
            assert [n.rationale for n in bs.stages] == [
                n.rationale for n in s.stages
            ]
            assert bs.edges == s.edges

    def test_faults_round_trip(self, hand_scenario, hand_stream):
        fault = FaultSpec(stage="recv", thread_index=1, at_chunk=4,
                          duration=0.1, kind="crash")
        plan = plan_from_scenario(hand_scenario(hand_stream(faults=(fault,))))
        back = plan_from_json(plan_to_json(plan))
        assert back.streams[0].faults == (fault,)

    def test_save_load(self, generated_plan, tmp_path):
        out = tmp_path / "plan.json"
        save_plan(generated_plan, str(out))
        doc = json.loads(out.read_text())
        assert doc["version"] == PLAN_VERSION
        assert doc["format"] == "repro-scenario"
        back = load_plan(str(out))
        assert diff_plans(generated_plan, back) == []

    @settings(max_examples=25, deadline=None)
    @given(
        num_chunks=st.integers(1, 5000),
        chunk_bytes=st.integers(1, 1 << 30),
        ratio_mean=st.floats(0.1, 10.0, allow_nan=False),
        ratio_sigma=st.floats(0.0, 1.0, allow_nan=False),
        queue_capacity=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
        counts=st.tuples(st.integers(1, 64), st.integers(1, 64)),
        micro=st.booleans(),
    )
    def test_workload_knobs_round_trip(
        self, num_chunks, chunk_bytes, ratio_mean, ratio_sigma,
        queue_capacity, seed, counts, micro,
    ):
        """Property-style: arbitrary workload shapes survive the codec."""
        from repro.core.config import ScenarioConfig, StreamConfig
        from repro.core.params import APS_LAN_PATH
        from repro.core.placement import PlacementSpec
        from repro.hw.presets import lynxdtn_spec, updraft_spec

        compress, decompress = counts
        sc = ScenarioConfig(
            name="prop",
            machines={"updraft1": updraft_spec(), "lynxdtn": lynxdtn_spec()},
            paths={"aps-lan": APS_LAN_PATH},
            streams=[StreamConfig(
                stream_id="s", sender="updraft1", receiver="lynxdtn",
                path="aps-lan", num_chunks=num_chunks,
                chunk_bytes=chunk_bytes, ratio_mean=ratio_mean,
                ratio_sigma=ratio_sigma, queue_capacity=queue_capacity,
                micro=micro,
                compress=StageConfig(compress, PlacementSpec.socket(0)),
                send=StageConfig(2, PlacementSpec.socket(1)),
                recv=StageConfig(2, PlacementSpec.socket(1)),
                decompress=StageConfig(decompress, PlacementSpec.split([0, 1])),
            )],
            seed=seed,
        )
        plan = plan_from_scenario(sc)
        back = plan_from_json(plan_to_json(plan))
        assert plan_to_dict(back) == plan_to_dict(plan)
        # And the lowered scenario matches the original exactly.
        assert scenario_to_dict(lower_sim(back)) == scenario_to_dict(sc)


class TestOldVersionsStillLoad:
    def test_v1_fixture_loads_as_plan_and_scenario(self):
        path = str(FIXTURES / "scenario_v1.json")
        plan = load_plan(path)
        scenario = load_scenario(path)
        assert plan.name == scenario.name == "fixture-v1"
        assert scenario_to_dict(lower_sim(plan)) == scenario_to_dict(scenario)

    def test_v2_fixture_loads_as_plan_and_scenario(self):
        path = str(FIXTURES / "scenario_v2.json")
        plan = load_plan(path)
        scenario = load_scenario(path)
        assert plan.streams[0].faults == tuple(scenario.streams[0].faults)
        assert scenario.streams[0].faults[0].stage == "compress"
        assert scenario_to_dict(lower_sim(plan)) == scenario_to_dict(scenario)

    def test_v3_loads_through_scenario_reader(self, generated_plan, tmp_path):
        """load_scenario accepts a v3 plan file by lowering it."""
        out = tmp_path / "plan.json"
        save_plan(run_passes(generated_plan).plan, str(out))
        scenario = load_scenario(str(out))
        assert scenario.name == generated_plan.name
        scenario.validate()

    def test_v2_scenario_json_lifts(self, hand_scenario):
        from repro.plan.serialize import scenario_to_json

        text = scenario_to_json(hand_scenario())
        plan = plan_from_json(text)
        assert plan.policy == "manual"
        assert plan.streams[0].stream_id == "s"


class TestRejection:
    def test_wrong_format(self):
        with pytest.raises(ValidationError, match="not a repro-scenario"):
            plan_from_dict({"format": "something-else", "version": 3})

    def test_unsupported_version(self):
        with pytest.raises(ValidationError, match="unsupported scenario version"):
            plan_from_dict({"format": "repro-scenario", "version": 99})

    def test_unknown_keys_rejected(self, generated_plan):
        doc = plan_to_dict(generated_plan)
        doc["surprise"] = True
        with pytest.raises(ValidationError, match="unknown plan keys"):
            plan_from_dict(doc)

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed plan JSON"):
            plan_from_json("{nope")

    def test_non_object_json(self):
        with pytest.raises(ValidationError, match="must be an object"):
            plan_from_json("[1, 2]")

    def test_scenario_reader_rejects_v3_garbage(self):
        """A v3 doc with bad internals fails loudly via the scenario
        reader, not silently."""
        with pytest.raises((ValidationError, KeyError)):
            scenario_from_json(json.dumps(
                {"format": "repro-scenario", "version": 3, "name": "x"}
            ))
