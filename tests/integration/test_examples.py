"""Example scripts actually run (the fast ones, end to end)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "end-to-end throughput" in out
        assert "generated configuration" in out

    def test_live_pipeline(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["live_pipeline", "--chunks", "4"])
        load_example("live_pipeline").main()
        out = capsys.readouterr().out
        assert "4/4 projections bit-exact" in out

    @pytest.mark.slow
    def test_bottleneck_analysis(self, capsys):
        load_example("bottleneck_analysis").main()
        out = capsys.readouterr().out
        assert "bottleneck stage: compress" in out
        assert "bottleneck stage: decompress" in out


class TestExamplesImportable:
    """Every example parses and exposes main() (cheap smoke for the
    heavyweight ones exercised by their underlying experiment tests)."""

    @pytest.mark.parametrize(
        "name",
        [p.stem for p in sorted(EXAMPLES.glob("*.py"))],
    )
    def test_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), name
