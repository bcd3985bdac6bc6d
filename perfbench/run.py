#!/usr/bin/env python3
"""The benchmark of record.

    PYTHONPATH=src python perfbench/run.py --seed 7 [--workload NAME] [--out FILE]

runs every workload (or the named ones) twice, each time in a fresh
subprocess: once with tracing off for the end-to-end numbers and once
traced for the per-layer numbers.  Every metric is printed by name with
its unit, every delivered chunk is verified, and ``--out`` gets the
whole document as JSON (what ``perfbench/compare.py`` reads).

With exactly one ``--workload`` and a ``--trace`` value the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end (``--trace 0``) or per-layer
(``--trace 1``) metric that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: A child that outlives this is killed with its whole process group.
CHILD_TIMEOUT_S = 170
#: End-to-end numbers that belong to one workload kind only, or that the
#: contract carries outside ``metrics``; printed and written to ``--out``.
EXTRA_UNITS = {
    "sim_chunks_per_s": "chunks/s",
    "sim_speedup_fig14": "ratio",
    "failed_share": "ratio",
}


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(workload: str, mode: str, seed: int, seconds: float) -> dict[str, Any]:
    """One workload and mode in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    cmd = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--seconds", str(seconds),
        "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload}/{mode} exceeded {CHILD_TIMEOUT_S}s")
    finally:
        # Compressor processes are the child's children: take the group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(
            f"perfbench: {workload}/{mode} exited with code {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def environment() -> dict[str, Any]:
    governor = None
    try:
        governor = Path(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"
        ).read_text().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "governor": governor,
    }


def contract_line(
    result: dict[str, Any], declared: list[dict[str, Any]], section: str
) -> dict[str, Any]:
    """The driver's result object: every declared metric, by name."""
    values = result[section]
    metrics = {}
    for d in declared:
        v = values.get(d["name"], 0.0)
        metrics[d["name"]] = {
            "value": v["value"] if isinstance(v, dict) else v,
            "unit": d["unit"],
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_result(name: str, trace: int, result: dict[str, Any], units: dict[str, str]) -> None:
    mode = "traced" if trace else "untraced"
    if result["status"] != "measured":
        print(f"{name} [{mode}] unmeasured: {result['reason']}")
        return
    verdict = "ok" if result["correct"] else "INCORRECT"
    print(
        f"{name} [{mode}] {result['chunks_per_repeat']} chunks/repeat, "
        f"{result['failed']}/{result['attempted']} failed, {verdict}"
    )
    for note in result["notes"]:
        print(f"    ! {note}")
    for remark in result.get("remarks", ()):
        print(f"    # {remark}")
    rows = dict(result.get("end_to_end", {}))
    rows.update(result.get("extra", {}))
    rows.update(result.get("per_layer", {}))
    for metric, v in rows.items():
        unit = units.get(metric, "")
        if isinstance(v, dict) and "min" in v and v["n"] > 1:
            print(
                f"    {metric:40s} {v['value']:14.4f} {unit:9s}"
                f" [{v['min']:.4f} .. {v['max']:.4f}] n={v['n']}"
            )
        else:
            value = v["value"] if isinstance(v, dict) else v
            print(f"    {metric:40s} {value:14.4f} {unit}")
    if "binding_stage" in result:
        print(f"    binding stage: {result['binding_stage']}")


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument(
        "--workload", action="append", choices=names,
        help="run only this workload (repeatable; default: all seven)",
    )
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="timed budget per workload; chunk counts scale by seconds/10",
    )
    ap.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end only, 1: per-layer only (default: both)",
    )
    ap.add_argument("--out", help="write the full JSON document here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found; nothing to measure", file=sys.stderr)
        return 2

    units = dict(EXTRA_UNITS)
    for d in contract["end_to_end"] + contract["per_layer"]:
        units[d["name"]] = d["unit"]
    selected = args.workload or names
    traces = (0, 1) if args.trace is None else (args.trace,)
    doc: dict[str, Any] = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.seconds / contract["run_seconds"],
        "env": environment(),
        "bounds": {d["name"]: d["bound"] for d in contract["end_to_end"]},
        "better": {d["name"]: d["better"] for d in contract["end_to_end"]},
        "workloads": {},
    }
    result: dict[str, Any] = {}
    for name in selected:
        entry = doc["workloads"].setdefault(name, {})
        for trace in traces:
            result = run_child(
                name, "traced" if trace else "untraced", args.seed, args.seconds
            )
            print_result(name, trace, result, units)
            entry["traced" if trace else "untraced"] = result
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if len(selected) == 1 and len(traces) == 1:
        if result["status"] != "measured":
            print(f"perfbench: {result['reason']}", file=sys.stderr)
            return 1
        section, declared = (
            ("per_layer", contract["per_layer"]) if traces[0]
            else ("end_to_end", contract["end_to_end"])
        )
        print(json.dumps(contract_line(result, declared, section)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
