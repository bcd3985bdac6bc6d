"""CLI edge cases beyond the happy paths in test_cli/test_serialize."""

import pytest

from repro.cli import main


class TestExperimentCliEdges:
    def test_failed_claims_exit_nonzero(self, monkeypatch, capsys):
        from repro.experiments import registry
        from repro.experiments.base import ExperimentResult
        from repro.util.tables import Table

        def failing_run(**_):
            t = Table(headers=["x"])
            t.add(1)
            return ExperimentResult(
                experiment="fig9", table=t, claims={"doomed": False}
            )

        monkeypatch.setattr(registry, "get_experiment", lambda n: failing_run)
        monkeypatch.setattr("repro.cli.get_experiment", lambda n: failing_run)
        assert main(["experiment", "fig9", "--quick"]) == 1
        assert "FAILED claims" in capsys.readouterr().err


class TestLiveCliEdges:
    def test_listen_and_connect_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(
                ["live", "--listen", "127.0.0.1:1", "--connect", "127.0.0.1:2"]
            )

    def test_connect_to_nowhere_fails(self):
        from repro.util.errors import TransportError

        with pytest.raises(TransportError):
            main(
                ["live", "--connect", "127.0.0.1:9", "--chunks", "1",
                 "--detector", "20x20", "--connections", "1"]
            )


class TestProcessModeCli:
    def test_process_mode_rejects_remote_endpoints(self):
        for endpoint in ("--listen", "--connect"):
            with pytest.raises(SystemExit):
                main(["live", "--mode", "process", endpoint, "127.0.0.1:1"])

    def test_process_mode_rejects_fault_injection(self):
        with pytest.raises(SystemExit):
            main(
                ["live", "--mode", "process", "--fault", "drop@5", "--chunks", "1"]
            )

    def test_domains_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["live", "--mode", "process", "--domains", "0", "--chunks", "1"])

    def test_domains_without_process_mode_is_an_error(self, capsys):
        """--domains used to be silently ignored in thread mode."""
        with pytest.raises(SystemExit) as info:
            main(["live", "--domains", "2", "--chunks", "1"])
        assert info.value.code == 2
        assert "--mode process" in capsys.readouterr().err

    def test_domains_rides_a_plan_that_says_process(self, tmp_path, capsys):
        """No --mode flag needed when the plan's execution node already
        says process — and LivePipeline (not a hand-picked class) runs
        it."""
        import json

        plan = tmp_path / "plan.json"
        assert main(
            ["plan", "generate", "--stream", "det1:updraft1:lynxdtn:aps-lan",
             "--chunks", "3", "-o", str(plan)]
        ) == 0
        doc = json.loads(plan.read_text())
        doc["execution"] = {"mode": "process"}
        plan.write_text(json.dumps(doc))
        rc = main(
            ["live", "--plan", str(plan), "--domains", "1", "--chunks", "3",
             "--detector", "60x64", "--codec", "zlib"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "process mode: 1 compressor domain(s)" in out

    def test_receiver_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["live", "--receiver-mode", "eventloop", "--chunks", "1"])
        assert info.value.code == 2

    def test_process_loopback_runs(self, capsys):
        rc = main(
            ["live", "--mode", "process", "--chunks", "3", "--detector", "60x64",
             "--codec", "zlib", "--compress-threads", "1", "--domains", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "process mode: 1 compressor domain(s)" in out


class TestPlanRunEdges:
    def test_run_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", str(tmp_path / "ghost.json")])

    def test_run_garbage_file(self, tmp_path, capsys):
        # A file that does not load is the user's error, reported as
        # one line and exit 1 (the ValidationError no longer escapes).
        path = tmp_path / "garbage.json"
        path.write_text("{]")
        with pytest.raises(SystemExit) as info:
            main(["run", str(path)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro: {path}: malformed plan JSON")
        assert err.count("\n") == 1

    def test_plan_unknown_machine(self, tmp_path):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown machine"):
            main(
                ["plan", "generate", "--stream", "s:ghost:lynxdtn:aps-lan",
                 "-o", str(tmp_path / "x.json")]
            )

    def test_plan_multiple_streams(self, tmp_path, capsys):
        out = tmp_path / "multi.json"
        rc = main(
            [
                "plan", "generate",
                "--stream", "a:updraft1:lynxdtn:aps-lan",
                "--stream", "b:updraft2:lynxdtn:aps-lan",
                "--chunks", "50",
                "-o", str(out),
            ]
        )
        assert rc == 0
        assert "2 streams" in capsys.readouterr().out
