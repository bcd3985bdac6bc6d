"""Scenario configuration files (Figure 4's plan artifacts)."""

import pytest

from repro.core.generator import ConfigGenerator, StreamRequest, Workload
from repro.core.runtime import run_scenario
from repro.plan.serialize import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_dict,
    scenario_to_json,
)
from repro.experiments.base import paper_testbed
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def plan():
    gen = ConfigGenerator(paper_testbed())
    return gen.generate(
        Workload(
            [
                StreamRequest("s1", "updraft1", "lynxdtn", "aps-lan",
                              num_chunks=60),
                StreamRequest("s2", "polaris1", "lynxdtn", "alcf-aps",
                              num_chunks=60),
            ],
            name="roundtrip",
        )
    )


class TestRoundTrip:
    def test_dict_roundtrip_preserves_structure(self, plan):
        doc = scenario_to_dict(plan)
        back = scenario_from_dict(doc)
        assert back.name == plan.name
        assert set(back.machines) == set(plan.machines)
        assert len(back.streams) == len(plan.streams)
        for a, b in zip(plan.streams, back.streams):
            assert a.stream_id == b.stream_id
            assert list(a.stages()) == list(b.stages())
            for kind in a.stages():
                sa, sb = a.stages()[kind], b.stages()[kind]
                assert sa.count == sb.count
                assert sa.placement == sb.placement

    def test_json_roundtrip(self, plan):
        back = scenario_from_json(scenario_to_json(plan))
        assert back.cost == plan.cost
        assert back.seed == plan.seed

    def test_file_roundtrip_runs_identically(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        save_scenario(plan, str(path))
        loaded = load_scenario(str(path))
        a = run_scenario(plan)
        b = run_scenario(loaded)
        assert a.total_delivered_gbps == pytest.approx(
            b.total_delivered_gbps, rel=1e-9
        )

    def test_machine_details_preserved(self, plan):
        back = scenario_from_json(scenario_to_json(plan))
        lynx = back.machines["lynxdtn"]
        assert lynx.nic_socket() == 1
        assert not lynx.nics[0].usable  # the LUSTRE NIC stays unusable

    def test_os_placement_roundtrip(self):
        gen = ConfigGenerator(paper_testbed())
        base = gen.os_baseline(
            Workload([StreamRequest("s", "updraft1", "lynxdtn", "aps-lan")])
        )
        back = scenario_from_json(scenario_to_json(base))
        (s,) = back.streams
        assert s.recv.placement.kind == "os"
        assert s.recv.placement.hint_socket == 1


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            scenario_from_dict({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self, plan):
        doc = scenario_to_dict(plan)
        doc["version"] = 99
        with pytest.raises(ValidationError, match="version"):
            scenario_from_dict(doc)

    def test_unknown_keys_rejected(self, plan):
        doc = scenario_to_dict(plan)
        doc["surprise"] = True
        with pytest.raises(ValidationError, match="unknown scenario keys"):
            scenario_from_dict(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            scenario_from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError, match="object"):
            scenario_from_json("[1, 2, 3]")

    def test_bad_placement_kind_rejected(self, plan):
        doc = scenario_to_dict(plan)
        doc["streams"][0]["stages"]["recv"]["placement"] = {"kind": "magic"}
        with pytest.raises(ValidationError, match="placement kind"):
            scenario_from_dict(doc)

    def test_decoded_scenario_still_validated(self, plan):
        # Hand-editing a file into an inconsistent state must fail the
        # normal scenario validation on load.
        doc = scenario_to_dict(plan)
        doc["streams"][0]["sender"] = "ghost"
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown sender"):
            scenario_from_dict(doc)


class TestCli:
    def test_plan_then_run(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "plan.json"
        rc = main(
            [
                "plan", "generate",
                "--stream", "d1:updraft1:lynxdtn:aps-lan",
                "--chunks", "60",
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        rc = main(["run", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "TOTAL" in text and "end-to-end" in text

    def test_plan_os_baseline(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "os.json"
        assert main(
            [
                "plan", "generate",
                "--stream", "d1:updraft1:lynxdtn:aps-lan",
                "--os-baseline",
                "-o", str(out),
            ]
        ) == 0
        assert '"kind": "os"' in out.read_text()

    def test_plan_bad_stream_spec(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["plan", "generate", "--stream", "nope",
                  "-o", str(tmp_path / "x.json")])
