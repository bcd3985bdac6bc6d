"""Every workload, both modes, at a twentieth of the reference scale."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from perfbench import run

CONTRACT = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_smoke_emits_every_declared_metric_once(tmp_path: Path) -> None:
    names = [w["name"] for w in CONTRACT["workloads"]]
    # Most of a smoke is single-threaded corpus rendering, so the two
    # halves run side by side; nothing here reads a timing.
    halves = [names[0::2], names[1::2]]
    t0 = time.perf_counter()
    procs = []
    for i, half in enumerate(halves):
        cmd = [
            sys.executable, str(Path(run.ROOT) / "perfbench" / "run.py"),
            "--seed", "7", "--seconds", "0.5",
            "--out", str(tmp_path / f"smoke{i}.json"),
        ]
        for name in half:
            cmd += ["--workload", name]
        procs.append(
            subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        )
    workloads = {}
    for i, proc in enumerate(procs):
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        doc = json.loads((tmp_path / f"smoke{i}.json").read_text())
        assert doc["scale"] == 0.05
        workloads.update(doc["workloads"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"smoke took {elapsed:.0f}s"
    assert sorted(workloads) == sorted(names)
    declared = {
        "untraced": ("end_to_end", CONTRACT["end_to_end"]),
        "traced": ("per_layer", CONTRACT["per_layer"]),
    }
    for name, entry in workloads.items():
        for mode, (section, metrics) in declared.items():
            result = entry[mode]
            assert result["status"] == "measured", (name, mode)
            assert result["failed"] == 0 and result["attempted"] >= 1, (name, mode)
            # Only timing-sensitive self-checks may trip at this scale.
            assert all("drift" in n or "late" in n for n in result["notes"]), (
                name, mode, result["notes"],
            )
            known = {d["name"] for d in metrics}
            assert set(result[section]) <= known, (name, mode)
            line = run.contract_line(result, metrics, section)
            assert list(line["metrics"]) == [d["name"] for d in metrics]
            assert all(
                math.isfinite(m["value"]) for m in line["metrics"].values()
            ), (name, mode)
        assert set(entry["untraced"]["end_to_end"]) == {
            d["name"] for d in CONTRACT["end_to_end"]
        }, name
        assert entry["untraced"]["extra"]["failed_share"]["value"] == 0.0
    sim = workloads["sim_fig14"]["untraced"]["extra"]
    assert sim["sim_speedup_fig14"]["value"] > 0
    assert sim["sim_chunks_per_s"]["value"] > 0
