"""CLI entry points."""

import json
from pathlib import Path

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

    def test_bad_codec(self, capsys):
        """An unknown codec (the retired bz2 and zstd-* names among them)
        is a usage error in every mode, caught before any worker, socket
        or process starts: exit 2 and one error line naming it."""
        modes = ([], ["--mode", "process"], ["--listen", "127.0.0.1:0"],
                 ["--connect", "127.0.0.1:9"])
        for codec in ("gzip9000", "bz2", "zstd-fast"):
            for mode in modes:
                with pytest.raises(SystemExit) as info:
                    main(["live", "--chunks", "1", "--detector", "60x64",
                          "--codec", codec, *mode])
                assert info.value.code == 2
                err = capsys.readouterr().err
                errors = [ln for ln in err.splitlines() if "error:" in ln]
                assert len(errors) == 1, err
                assert errors[0].startswith(
                    f"repro live: error: unknown codec {codec!r}"
                )

    @pytest.mark.parametrize(
        "codec", ["lz4:block_max_size=12345", "shuffle-lz4:block_max_size=100"]
    )
    def test_bad_lz4_block_size(self, codec, capsys):
        """A block size the LZ4 frame cannot carry is a usage error
        before anything starts, not a CodecError on every chunk."""
        with pytest.raises(SystemExit) as info:
            main(["live", "--chunks", "2", "--detector", "64x64",
                  "--codec", codec])
        assert info.value.code == 2
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1, err
        assert errors[0].startswith("repro live: error: block_max_size")


class TestPlanThatFailsValidation:
    """A plan file that loads but names an unknown codec is refused by
    the lowering, not the loader: one line on stderr and exit 1, the
    way a file that does not load is reported, not a traceback."""

    @pytest.fixture
    def nope_plan(self, tmp_path):
        fixtures = Path(__file__).parents[1] / "plan" / "fixtures"
        doc = json.loads((fixtures / "plan_v3_codec.json").read_text())
        doc["codec"] = {"name": "nope"}
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["plan", "lower", "--target", "sim"],
            ["live", "--chunks", "1", "--detector", "64x64", "--plan"],
        ],
        ids=["run", "plan-lower-sim", "live-plan"],
    )
    def test_one_line_and_exit_1(self, argv, nope_plan, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, str(nope_plan)])
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(
            f"repro: {nope_plan}: codec policy: unknown codec 'nope'"
        )
