"""BENCHMARK.json, the workload table and compare.py agree."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from perfbench import compare, run
from perfbench.workloads import WORKLOADS

CONTRACT = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_contract_lists_the_seven_workloads_with_their_reasons() -> None:
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])


def test_contract_stays_inside_the_driver_limits() -> None:
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["perfbench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        d["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for d in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for d in CONTRACT["end_to_end"]:
        assert set(d) == {"name", "unit", "better", "bound"}
        assert 0 < d["bound"] <= 0.25
    setup = next(d for d in CONTRACT["end_to_end"] if d["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(d["bound"] for d in CONTRACT["end_to_end"])
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert runs * CONTRACT["run_seconds"] < 3420


def _doc(goodput: tuple[float, ...], **top: object) -> dict:
    """A one-workload document; ``goodput`` is the repeats, in order."""
    return {
        "seed": 7,
        "seconds": 10.0,
        "bounds": {"goodput_MBps": 0.1},
        "better": {"goodput_MBps": "higher"},
        "workloads": {
            "proj_zlib": {
                "untraced": {
                    "status": "measured", "correct": True, "failed": 0,
                    "attempted": 75, "notes": [], "extra": {},
                    "end_to_end": {
                        "goodput_MBps": {
                            "value": sorted(goodput)[len(goodput) // 2],
                            "min": min(goodput), "max": max(goodput),
                            "n": len(goodput),
                        }
                    },
                }
            }
        },
        **top,
    }


A = (86.0, 87.0, 88.0)


@pytest.mark.parametrize(
    "b, word, holds",
    [
        ((85.0, 86.0, 87.0), "ok", True),
        ((70.0, 71.0, 72.0), "worse", False),
        ((60.0, 71.0, 90.0), "unresolved", True),
        ((120.0, 130.0, 160.0), "ok", True),  # wide, but every repeat beats A
        ((86.0,), "single", True),  # one measurement has no spread to judge
        ((70.0,), "worse", False),
    ],
)
def test_compare_verdicts(b: tuple, word: str, holds: bool) -> None:
    lines, ok = compare.compare(_doc(A), _doc(b))
    assert lines[1].split()[-1] == word
    assert ok is holds


def test_compare_fails_a_workload_b_dropped_or_left_unmeasured() -> None:
    lines, ok = compare.compare(_doc(A), _doc(A, workloads={}))
    assert not ok and "MISSING from B" in lines[1]
    skipped = _doc(A)
    skipped["workloads"]["proj_zlib"]["untraced"] = {
        "status": "unmeasured", "reason": "spawn unavailable",
    }
    lines, ok = compare.compare(_doc(A), skipped)
    assert not ok and "UNMEASURED (B: spawn unavailable)" in lines[1]


@pytest.mark.parametrize("key, value", [("seconds", 0.5), ("seed", 8)])
def test_compare_refuses_documents_that_did_different_work(
    key: str, value: float, tmp_path: Path, capsys: pytest.CaptureFixture
) -> None:
    for name, doc in (("a", _doc(A)), ("b", _doc(A, **{key: value}))):
        (tmp_path / name).write_text(json.dumps(doc))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"--{key}" in captured.err


def test_contract_line_names_every_declared_metric_once() -> None:
    result = {
        "correct": True, "attempted": 5, "failed": 0,
        "per_layer": {"compress.ratio": 1.97},
    }
    line = run.contract_line(result, CONTRACT["per_layer"], "per_layer")
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == [d["name"] for d in CONTRACT["per_layer"]]
    assert line["metrics"]["compress.ratio"] == {"value": 1.97, "unit": "ratio"}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
