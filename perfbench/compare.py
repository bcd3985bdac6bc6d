#!/usr/bin/env python3
"""Compare two ``run.py --out`` documents, metric by metric.

    python perfbench/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, the
ratio B/A with its base, the bound, and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  the repeats of either side spread wider than the bound,
                so the two cannot be told apart — unless every repeat
                of B reads better than every repeat of A;
``single``      inside the bound, but a side is one measurement (n = 1:
                ``setup_s``, ``peak_rss_MB``, the paced pass's goodput
                and CPU), so its spread is unknown and the row settles
                nothing on its own.

``failed_share`` must be 0 on both sides and ``sim_speedup_fig14``
identical.  A workload of A that B lacks, or that either side left
unmeasured, fails the comparison.  Exit code 1 when any row is ``worse``
or a check fails; 2, and nothing compared, when the two documents were
not run with the same ``--seed`` and ``--seconds``.
"""

from __future__ import annotations

import json
import sys
from typing import Any


def worsening(a: float, b: float, better: str) -> float:
    """By what share of A the value got worse from A to B (< 0: better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


def spread(stat: dict[str, Any]) -> float:
    """Range of the repeats as a share of their median."""
    return (stat["max"] - stat["min"]) / stat["value"]


def verdict(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    if min(a["n"], b["n"]) == 1:
        worse = worsening(a["value"], b["value"], better) > bound
        return "worse" if worse else "single"
    if max(spread(a), spread(b)) > bound:
        if better == "higher":
            clear = b["min"] > a["max"]
        else:
            clear = b["max"] < a["min"]
        return "ok" if clear else "unresolved"
    return "worse" if worsening(a["value"], b["value"], better) > bound else "ok"


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines, and whether B holds against A.

    Raises ``ValueError`` when the two did not do the same work.
    """
    for key in ("seed", "seconds"):
        if doc_a[key] != doc_b[key]:
            raise ValueError(
                f"A ran with --{key} {doc_a[key]} and B with {doc_b[key]}; "
                "the two did not do the same work"
            )
    lines = [
        f"{'workload':16s} {'metric':22s} {'A':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'bound':>6s} {'n':>5s}  verdict"
    ]
    holds = True
    bounds, better = doc_a["bounds"], doc_a["better"]
    for name, entry_a in doc_a["workloads"].items():
        a = entry_a.get("untraced")
        b = doc_b["workloads"].get(name, {}).get("untraced")
        if a is None:
            continue  # A ran this workload traced only
        if b is None:
            holds = False
            lines.append(f"{name:16s} MISSING from B")
            continue
        unmeasured = [
            f"{side}: {run['reason']}"
            for side, run in (("A", a), ("B", b))
            if run["status"] != "measured"
        ]
        if unmeasured:
            holds = False
            lines.append(f"{name:16s} UNMEASURED ({'; '.join(unmeasured)})")
            continue
        for metric, stat_a in a["end_to_end"].items():
            stat_b = b["end_to_end"][metric]
            v = verdict(stat_a, stat_b, better[metric], bounds[metric])
            holds &= v != "worse"
            lines.append(
                f"{name:16s} {metric:22s} {stat_a['value']:12.4f} "
                f"{stat_b['value']:12.4f} {stat_b['value'] / stat_a['value']:7.3f} "
                f"{bounds[metric]:6.2f} {stat_a['n']:2d}/{stat_b['n']:<2d}  {v}"
            )
        for side, run in (("A", a), ("B", b)):
            if run["failed"] or not run["correct"]:
                holds = False
                lines.append(
                    f"{name:16s} {side}: {run['failed']}/{run['attempted']} "
                    f"chunks failed; notes: {run['notes']}"
                )
        speed_a = a["extra"].get("sim_speedup_fig14")
        speed_b = b["extra"].get("sim_speedup_fig14")
        if speed_a is not None:
            same = speed_a["value"] == speed_b["value"]
            holds &= same
            lines.append(
                f"{name:16s} {'sim_speedup_fig14':22s} {speed_a['value']:12.6f} "
                f"{speed_b['value']:12.6f} {'':7s} {'':6s} {'':5s}  "
                f"{'identical' if same else 'DIFFERS'}"
            )
    return lines, holds


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path) as fh:
            docs.append(json.load(fh))
    try:
        lines, holds = compare(*docs)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
