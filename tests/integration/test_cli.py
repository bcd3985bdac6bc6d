"""CLI entry points."""

import pytest

from repro.cli import main


class TestExperimentCli:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "fig9", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9a" in out
        assert "PASS" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_seed_flag(self, capsys):
        assert main(["experiment", "fig8", "--quick", "--seed", "11"]) == 0


class TestLiveCli:
    def test_small_run(self, capsys):
        rc = main(["live", "--chunks", "3", "--detector", "60x64", "--codec", "zlib"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chunks=3" in out

    def test_bad_codec(self):
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            main(["live", "--chunks", "1", "--detector", "60x64", "--codec", "nope"])
