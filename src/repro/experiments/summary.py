"""Run-everything summary: headline paper numbers vs. measured.

Collects the handful of values the paper leads with and prints one
table — the executive view of the reproduction.  Used by
``repro experiment all`` after the per-exhibit output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.base import ExperimentResult
from repro.util.tables import Table


@dataclass(frozen=True)
class Headline:
    """One headline comparison extracted from an experiment result."""

    exhibit: str
    metric: str
    paper: str
    measured: str
    ok: bool


def extract_headlines(results: dict[str, ExperimentResult]) -> list[Headline]:
    """Pull headline numbers from whichever exhibits are present."""
    out: list[Headline] = []

    fig5 = results.get("fig5")
    if fig5:
        data = fig5.data["results"]
        boost = data["8/N1"] / data["8/N0"]
        peak = max(v for k, v in data.items() if k.endswith("/N1"))
        out.append(Headline("fig5", "NUMA-1 receive boost", "~1.15x",
                            f"{boost:.2f}x", 1.05 <= boost <= 1.3))
        out.append(Headline("fig5", "peak receiver throughput", "190+ Gbps",
                            f"{peak:.0f} Gbps", peak >= 185.0))

    fig9 = results.get("fig9")
    if fig9:
        data = fig9.data["results"]
        if "A/16" in data and "E/16" in data:
            gap = data["E/16"] / data["A/16"]
            out.append(Headline("fig9", "split-domain decompression gain",
                                "E/F outpace A-D", f"{gap:.2f}x", gap > 1.05))

    fig11 = results.get("fig11")
    if fig11:
        data = fig11.data["results"]
        if "D/1" in data and "A/1" in data:
            gap = data["D/1"] / data["A/1"]
            out.append(Headline("fig11", "per-thread NUMA-1 boost", "up to 15%",
                                f"{(gap - 1) * 100:.0f}%", 1.05 <= gap <= 1.25))

    fig12 = results.get("fig12")
    if fig12:
        data = fig12.data["results"]
        a_keys = [k for k in data if k.startswith("A/")]
        fg_keys = [k for k in data if k.startswith(("F/", "G/")) and k.endswith("/N1")]
        if a_keys and fg_keys:
            baseline = max(data[k] for k in a_keys)
            best = max(data[k] for k in fg_keys)
            speedup = best / baseline
            out.append(Headline("fig12", "single-stream best vs baseline",
                                "2.6x (97 vs 37 Gbps)",
                                f"{speedup:.2f}x ({best:.0f} vs {baseline:.0f} Gbps)",
                                2.2 <= speedup <= 3.0))

    fig14 = results.get("fig14")
    if fig14:
        speedup = fig14.data["speedup"]
        rt = fig14.data["runtime"]
        out.append(Headline("fig14", "multi-stream runtime vs OS",
                            "1.48x (212.95 vs 143.3 Gbps e2e)",
                            f"{speedup:.2f}x ({rt['e2e']:.0f} Gbps e2e)",
                            1.25 <= speedup <= 1.75))
    return out


def render_summary(results: dict[str, ExperimentResult]) -> str:
    """The executive table plus an overall claims tally."""
    table = Table(
        headers=["exhibit", "headline", "paper", "measured", "ok"],
        title="reproduction summary (paper vs measured)",
    )
    headlines = extract_headlines(results)
    for h in headlines:
        table.add(h.exhibit, h.metric, h.paper, h.measured,
                  "yes" if h.ok else "NO")
    total = sum(len(r.claims) for r in results.values())
    passed = sum(sum(r.claims.values()) for r in results.values())
    lines = [table.render(), "",
             f"claims: {passed}/{total} PASS across {len(results)} exhibits"]
    return "\n".join(lines)
