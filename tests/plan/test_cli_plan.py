"""The ``repro plan`` subcommands, and ``repro run`` on their output."""

import json

import pytest

from repro.cli import main
from repro.plan.serialize import load_plan
from repro.util.errors import ConfigurationError

STREAM = "det1:updraft1:lynxdtn:aps-lan"


@pytest.fixture
def plan_file(tmp_path):
    out = tmp_path / "plan.json"
    rc = main(["plan", "generate", "--stream", STREAM, "--chunks", "40",
               "-o", str(out)])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_v3_plan(self, plan_file, capsys):
        doc = json.loads(plan_file.read_text())
        assert doc["version"] == 3
        assert doc["policy"] == "numa_aware"
        plan = load_plan(str(plan_file))
        assert plan.stream_ids() == ["det1"]

    def test_os_baseline(self, tmp_path):
        out = tmp_path / "base.json"
        assert main(["plan", "generate", "--stream", STREAM, "--os-baseline",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["policy"] == "os_baseline"

    def test_unknown_machine_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            main(["plan", "generate", "--stream", "s:ghost:lynxdtn:aps-lan",
                  "-o", str(tmp_path / "x.json")])


class TestExplain:
    def test_explains_generated_plan(self, plan_file, capsys):
        assert main(["plan", "explain", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "policy=numa_aware" in out
        assert "why:" in out

    def test_nonzero_exit_on_broken_plan(self, tmp_path, capsys):
        from repro.plan.ir import PipelinePlan
        from repro.plan.serialize import save_plan

        # The IR is permissive: a stream-less plan serializes fine and
        # explain surfaces the diagnostics with a non-zero exit.
        doc_path = tmp_path / "broken.json"
        save_plan(
            PipelinePlan(name="b", machines={}, paths={}, streams=[]),
            str(doc_path),
        )
        assert main(["plan", "explain", str(doc_path)]) == 1
        assert "has no streams" in capsys.readouterr().out


class TestDiff:
    def test_substrates_parity(self, plan_file, capsys):
        assert main(["plan", "diff", str(plan_file), "--substrates"]) == 0
        assert "0 placement drift" in capsys.readouterr().out

    def test_identical_plans(self, plan_file, capsys):
        assert main(["plan", "diff", str(plan_file), str(plan_file)]) == 0
        assert "plans are identical" in capsys.readouterr().out

    def test_drifted_plans_exit_nonzero(self, plan_file, tmp_path, capsys):
        other = tmp_path / "other.json"
        rc = main(["plan", "generate", "--stream", STREAM, "--chunks", "99",
                   "-o", str(other)])
        assert rc == 0
        assert main(["plan", "diff", str(plan_file), str(other)]) == 1
        assert "num_chunks" in capsys.readouterr().out

    def test_missing_second_plan_errors(self, plan_file):
        with pytest.raises(SystemExit):
            main(["plan", "diff", str(plan_file)])


class TestLower:
    def test_lower_sim_prints_scenario(self, plan_file, capsys):
        assert main(["plan", "lower", str(plan_file), "--target", "sim"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 2
        assert doc["streams"][0]["stream_id"] == "det1"

    def test_lower_sim_writes_file(self, plan_file, tmp_path, capsys):
        out = tmp_path / "lowered.json"
        assert main(["plan", "lower", str(plan_file), "--target", "sim",
                     "-o", str(out)]) == 0
        from repro.plan.serialize import load_scenario

        load_scenario(str(out)).validate()

    def test_lower_live_prints_affinity(self, plan_file, capsys):
        assert main(["plan", "lower", str(plan_file), "--target", "live",
                     "--host-cpus", "64"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stream_id"] == "det1"
        assert doc["connections"] >= 1
        assert "recv" in doc["affinity"]
        assert doc["stage_counts"]["recv"] == doc["connections"]


class TestRunPlanFlag:
    """``repro run`` takes the plan file one way: positionally."""

    def test_run_positional_still_accepts_v3(self, plan_file, capsys):
        assert main(["run", str(plan_file)]) == 0
        text = capsys.readouterr().out
        assert "det1" in text and "TOTAL" in text

    def test_run_rejects_neither(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize(
        "argv", [["run"], ["plan", "explain"], ["live", "--plan"]],
        ids=["run", "explain", "live"],
    )
    def test_file_that_does_not_load_is_one_line_and_exit_1(
        self, argv, plan_file, tmp_path, capsys
    ):
        """A misspelt key is reported the way a user reads it —
        ``repro: <file>: <message>`` and exit 1 — not as a traceback
        (an escaping ReproError would fail the ``raises`` below)."""
        doc = json.loads(plan_file.read_text())
        doc["streams"][0]["num_chunk"] = 10
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as info:
            main([*argv, str(bad)])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: {bad}: unknown stream keys: ['num_chunk']\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["telemetry", "dump"],
        ["plan", "--stream", STREAM, "-o", "OUT"],
        ["plan", "generate", "--stream", STREAM, "-o", "OUT",
         "--codec-adaptive", "zlib,null"],
        ["plan", "generate", "--stream", STREAM, "-o", "OUT",
         "--codec", "adaptive", "--probe-interval", "8"],
        ["plan", "generate", "--stream", STREAM, "-o", "OUT", "--scenario"],
        ["run", "--plan", "PLAN"],
        ["run", "PLAN", "--plan", "PLAN"],
        ["live", "--chunks", "1", "--flow-out", "OUT"],
        ["live", "--chunks", "1", "--batch-linger", "0.005"],
        ["live", "--chunks", "1", "--batch-frames", "8", "--json-out", "OUT"],
        ["plan", "generate", "--stream", STREAM, "-o", "OUT",
         "--batch-frames", "8"],
        ["live", "--chunks", "1", "--autotune", "--json-out", "OUT"],
        ["run", "PLAN", "--autotune", "--json-out", "OUT"],
    ],
    ids=["telemetry", "bare-plan", "codec-adaptive", "probe-interval",
         "scenario", "run-plan-flag", "run-both-forms", "flow-out",
         "batch-linger", "live-batch-frames", "plan-batch-frames",
         "live-autotune", "run-autotune"],
)
def test_old_spelling_exits_2(argv, plan_file, tmp_path, capsys):
    """Removed spellings are rejected by argparse, not aliased."""
    out = tmp_path / "out.json"
    argv = [{"OUT": str(out), "PLAN": str(plan_file)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["live", "--chunks", "1", "--detector", "60x64"],
        ["live", "--chunks", "1", "--detector", "60x64", "--mode", "process"],
        ["plan", "generate", "--stream", STREAM, "-o", "OUT"],
    ],
    ids=["live", "live-process", "plan-generate"],
)
@pytest.mark.parametrize(
    "codec", ["adaptive", "adaptive:allowed=zlib|null,probe_interval=8"]
)
def test_removed_adaptive_codec_exits_2(argv, codec, tmp_path, capsys):
    """The removed adaptive codec is refused by name before anything
    starts or is written: exit 2 and one error line saying so."""
    out = tmp_path / "out.json"
    argv = [str(out) if a == "OUT" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--codec", codec])
    assert info.value.code == 2
    errors = [
        ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln
    ]
    assert len(errors) == 1 and "'adaptive' was removed" in errors[0]
    assert not out.exists()
