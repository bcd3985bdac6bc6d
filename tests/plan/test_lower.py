"""The two lowerings: sim round-trip identity, live affinity parity."""

import pytest

from repro.core.config import FaultSpec, StageConfig, StageKind
from repro.core.placement import PlacementSpec
from repro.plan.serialize import scenario_to_dict
from repro.hw.presets import lynxdtn_spec, polaris_spec, updraft_spec
from repro.hw.topology import CoreId
from repro.plan.ingest import plan_from_scenario, stream_from_config
from repro.plan.lower import (
    LIVE_STAGES,
    lower_live,
    lower_sim,
    stream_affinity,
)
from repro.util.errors import ConfigurationError


class TestLowerSim:
    def test_round_trip_identity(self, hand_scenario):
        """lift -> lower is the identity on a hand-built scenario."""
        sc = hand_scenario()
        lowered = lower_sim(plan_from_scenario(sc))
        assert scenario_to_dict(lowered) == scenario_to_dict(sc)

    def test_generator_plan_matches_generate(self, generator,
                                             one_stream_workload):
        """generate() is exactly build-plan-then-lower."""
        via_plan = lower_sim(generator.generate_plan(one_stream_workload))
        direct = generator.generate(one_stream_workload)
        assert scenario_to_dict(via_plan) == scenario_to_dict(direct)

    def test_faults_carried_verbatim(self, hand_scenario, hand_stream):
        fault = FaultSpec(stage="compress", at_chunk=3, kind="stall")
        sc = hand_scenario(hand_stream(faults=(fault,)))
        lowered = lower_sim(plan_from_scenario(sc))
        assert lowered.streams[0].faults == (fault,)


class TestStreamAffinity:
    """Same expectations the old live/planning translation satisfied."""

    def lift(self, hand_stream, **kw):
        return stream_from_config(hand_stream(**kw))

    def test_socket_placements_translate(self, hand_stream):
        aff = stream_affinity(
            self.lift(hand_stream), updraft_spec(), lynxdtn_spec(),
            host_cpus=64,
        )
        assert aff["compress"] == list(range(16))
        assert aff["send"] == list(range(16, 32))
        assert aff["recv"] == list(range(16, 32))
        assert aff["decompress"] == list(range(32))

    def test_pinned_placements_translate(self, hand_stream):
        s = self.lift(
            hand_stream,
            compress=StageConfig(
                2, PlacementSpec.pinned([CoreId(0, 3), CoreId(1, 5)])
            ),
        )
        aff = stream_affinity(s, updraft_spec(), lynxdtn_spec(), host_cpus=64)
        assert aff["compress"] == [3, 21]

    def test_modulo_folding_on_small_host(self, hand_stream):
        aff = stream_affinity(
            self.lift(hand_stream), updraft_spec(), lynxdtn_spec(),
            host_cpus=8,
        )
        assert aff["compress"] == list(range(8))
        assert all(0 <= c < 8 for cpus in aff.values() for c in cpus)

    def test_os_managed_stays_unpinned(self, hand_stream):
        s = self.lift(
            hand_stream,
            recv=StageConfig(2, PlacementSpec.os_managed(hint_socket=1)),
        )
        aff = stream_affinity(s, updraft_spec(), lynxdtn_spec(), host_cpus=64)
        assert "recv" not in aff

    def test_absent_stage_skipped(self, hand_stream):
        s = self.lift(hand_stream, decompress=None)
        aff = stream_affinity(s, updraft_spec(), lynxdtn_spec(), host_cpus=64)
        assert "decompress" not in aff

    def test_zero_cpus_rejected(self, hand_stream):
        with pytest.raises(ConfigurationError, match="host reports no CPUs"):
            stream_affinity(
                self.lift(hand_stream), updraft_spec(), lynxdtn_spec(),
                host_cpus=0,
            )

    def test_live_stage_names_cover_pipeline(self):
        assert set(LIVE_STAGES.values()) == {
            StageKind.INGEST, StageKind.COMPRESS, StageKind.SEND,
            StageKind.RECV, StageKind.DECOMPRESS,
        }


class TestLowerLive:
    def test_single_stream_plan_needs_no_id(self, hand_scenario):
        lowered = lower_live(plan_from_scenario(hand_scenario()),
                             host_cpus=64)
        assert lowered.stream_id == "s"
        assert lowered.config.compress_threads == 4
        assert lowered.config.decompress_threads == 4
        assert lowered.config.connections == 2
        assert lowered.config.queue_capacity == 4
        assert lowered.config.affinity == lowered.affinity
        assert lowered.affinity["compress"] == list(range(16))

    def test_multi_stream_plan_requires_id(self, hand_scenario, hand_stream):
        plan = plan_from_scenario(hand_scenario(
            hand_stream(stream_id="a"), hand_stream(stream_id="b")
        ))
        with pytest.raises(ConfigurationError, match="pass stream_id"):
            lower_live(plan, host_cpus=64)
        assert lower_live(plan, "b", host_cpus=64).stream_id == "b"

    def test_unknown_machines_rejected(self, hand_scenario, hand_stream):
        plan = plan_from_scenario(hand_scenario())
        plan.machines.pop("lynxdtn")
        with pytest.raises(ConfigurationError, match="must be in the plan"):
            lower_live(plan, host_cpus=64)

    def test_faults_and_counts_exposed(self, hand_scenario, hand_stream):
        fault = FaultSpec(stage="recv", kind="crash", at_chunk=2)
        plan = plan_from_scenario(hand_scenario(hand_stream(faults=(fault,))))
        lowered = lower_live(plan, host_cpus=64)
        assert lowered.faults == (fault,)
        assert lowered.stage_counts == {
            "compress": 4, "send": 2, "recv": 2, "decompress": 4
        }

    def test_codec_passes_through(self, hand_scenario):
        lowered = lower_live(plan_from_scenario(hand_scenario()),
                             codec="null", host_cpus=64)
        assert lowered.config.codec == "null"

    def test_polaris_single_socket_lowering(self, generator):
        """A single-socket receiver still lowers (decompression shares
        the NIC domain — there is no other)."""
        from repro.core.generator import StreamRequest, Workload

        plan = generator.generate_plan(
            Workload([StreamRequest("s1", "updraft1", "polaris1", "aps-lan")])
        )
        lowered = lower_live(plan, host_cpus=64)
        assert lowered.config.connections >= 1
        assert lowered.affinity
