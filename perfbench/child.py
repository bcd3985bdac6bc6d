"""One workload, measured in a fresh process.

``python -m perfbench.child`` is what ``perfbench/run.py`` spawns, once
per workload and mode, so leaked threads, GC state and RSS never cross
workloads.  The result is one JSON object on the last line of stdout.

Modes: ``untraced`` (the end-to-end numbers; tracing off) and ``traced``
(the per-layer numbers).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from typing import Any

from perfbench import layers
from perfbench.harness import Pass, SimPass, live_pass, sim_pass
from perfbench.workloads import (
    REFERENCE_SECONDS,
    REPEATS,
    SIM_PAIRS,
    SPEEDUP_BAND,
    WORKLOADS,
    Workload,
    build_corpus,
    ratio_in_band,
)

#: Generator lateness above which the open-loop run is not open loop.
SCHED_LAG_LIMIT_MS = 20.0
#: Last-third over first-third latency above which the offered rate was
#: not sustainable and the paced run counts as failed.
DRIFT_LIMIT = 1.25
#: Every live workload's serial pass must account for its own wall time:
#: this share of it, or all but the loop's own bookkeeping (a dozen clock
#: pairs and span tuples per chunk, ~5 us, which is 12 % of a 2 KiB
#: chunk's 45 us and nothing of a megabyte chunk's milliseconds).
CLOSURE_FLOOR = 0.95
BOOKKEEPING_US = 20.0


def stat(values: list[float]) -> dict[str, Any]:
    """Median of the repeats, with their extremes and count beside it."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def block_stat(values: list[float]) -> dict[str, Any]:
    """Median of one pass, which has no repeats to spread over: the
    extremes are those of the medians of ``REPEATS`` consecutive blocks
    of the pass, and ``n`` counts the blocks."""
    n = len(values)
    blocks = [
        statistics.median(values[i * n // REPEATS:(i + 1) * n // REPEATS])
        for i in range(REPEATS)
    ]
    return {
        "value": statistics.median(values),
        "min": min(blocks),
        "max": max(blocks),
        "n": REPEATS,
    }


def pooled(num: list[float], den: list[float]) -> dict[str, Any]:
    """Ratio of the sums over all passes, with the per-pass extremes."""
    each = [a / b for a, b in zip(num, den)]
    return {
        "value": sum(num) / sum(den),
        "min": min(each),
        "max": max(each),
        "n": len(each),
    }


def peak_rss_MB() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def unmeasured_reason(w: Workload) -> str | None:
    if w.kind == "mp" and "spawn" not in multiprocessing.get_all_start_methods():
        return "multiprocessing start method 'spawn' is unavailable"
    return None


class Session:
    """A set-up workload: corpus rendered, warm-up pass done."""

    def __init__(self, w: Workload, seed: int, seconds: float) -> None:
        self.w, self.seed = w, seed
        self.n = w.chunks_for(seconds)
        self.serial_n = w.serial_chunks_for(seconds)
        #: Self-checks that need the reference sample size (the fig14
        #: band, latency drift) are reported but not enforced below it.
        self.full_scale = seconds >= REFERENCE_SECONDS / 2
        self.corpus: list[bytes] = []
        self.render_ms: list[float] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        if w.kind == "sim":
            # Same scenario as the timed pairs, cut to the fewest chunks
            # that outlast its warm-up window.
            self.note_sim(sim_pass(seed, w.min_chunks), timed=False)
        else:
            self.corpus, self.render_ms = build_corpus(w, seed)
            warm = max(2, len(w.streams), len(self.corpus))
            self.note(live_pass(w, self.corpus, warm, paced=False), timed=False)

    def note(self, p: Pass, *, timed: bool = True) -> Pass:
        """Book a pass's verification outcome; returns it."""
        if timed:
            self.attempted += p.chunks
            self.failed += p.failed
        elif p.failed:
            self.notes.append(f"warm-up: {p.failed} chunks failed")
        self.notes.extend(p.errors)
        return p

    def note_sim(self, p: SimPass, *, timed: bool = True) -> SimPass:
        if timed:
            self.attempted += p.chunks
            self.failed += 0 if p.ok else p.chunks
        if not p.ok:
            self.notes.append("sim: a stream delivered fewer chunks than planned")
        return p

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.notes.append(message)

    def verdict(self) -> dict[str, Any]:
        return {
            "correct": not self.failed and not self.notes,
            "attempted": self.attempted,
            "failed": self.failed,
            "notes": self.notes,
        }


def measure_untraced(s: Session) -> dict[str, Any]:
    """The end-to-end numbers of one workload, tracing off."""
    w = s.w
    extra: dict[str, Any] = {}
    remarks: list[str] = []
    if w.kind == "sim":
        seeds = [s.seed + 7919 * i for i in range(SIM_PAIRS - 1)] + [s.seed]
        passes = [s.note_sim(sim_pass(seed, s.n)) for seed in seeds]
        s.check(
            passes[0].delivered_gbps == passes[-1].delivered_gbps,
            f"sim not deterministic: {passes[0].delivered_gbps} then "
            f"{passes[-1].delivered_gbps} on seed {s.seed}",
        )
        placed, baseline = zip(*(p.delivered_gbps for p in passes[:-1]))
        speedup = sum(placed) / sum(baseline)
        s.check(
            not s.full_scale or SPEEDUP_BAND[0] <= speedup <= SPEEDUP_BAND[1],
            f"fig14 speedup {speedup:.3f} outside {SPEEDUP_BAND}",
        )
        wall = [p.wall_s for p in passes]
        size = [p.payload_bytes for p in passes]
        count = [p.chunks for p in passes]
        e2e = {
            "goodput_MBps": pooled([b / 1e6 for b in size], wall),
            # No chunk crosses a pipeline here; the wait a user sees is
            # wall time per simulated chunk.
            "chunk_latency_p50_ms": pooled([t * 1e3 for t in wall], count),
            "cpu_s_per_GB": pooled([p.cpu_s for p in passes], [b / 1e9 for b in size]),
        }
        extra["sim_chunks_per_s"] = pooled(count, wall)
        remarks = [
            "goodput_MBps, chunk_latency_p50_ms and sim_chunks_per_s are one "
            "measurement here (simulated chunks / wall seconds) in three "
            "units; they move together and count as one piece of evidence"
        ]
        extra["sim_speedup_fig14"] = {"value": speedup}
    else:
        repeats = 1 if w.kind == "paced" else REPEATS
        live = [s.note(live_pass(w, s.corpus, s.n)) for _ in range(repeats)]
        e2e = {
            "goodput_MBps": stat([p.goodput_MBps for p in live]),
            "chunk_latency_p50_ms": (
                block_stat(live[0].latencies_ms) if w.kind == "paced"
                else stat([statistics.median(p.latencies_ms) for p in live])
            ),
            "cpu_s_per_GB": stat([p.cpu_s_per_GB for p in live]),
        }
        if w.kind == "paced":
            diag = layers.paced_diagnostics(live[0])
            _check_paced(s, diag)
            extra.update({k: {"value": v} for k, v in diag.items()})
        report = live[0].reports[0]
        if hasattr(report, "compression_ratio"):
            s.check(
                ratio_in_band(w, report.compression_ratio),
                f"corpus ratio {report.compression_ratio:.2f} outside band",
            )
    out = {"chunks_per_repeat": s.n, "repeats": e2e["goodput_MBps"]["n"]}
    out.update(s.verdict())
    extra["failed_share"] = {"value": s.failed / max(1, s.attempted)}
    out["remarks"] = remarks
    out["end_to_end"] = e2e
    out["extra"] = extra
    return out


def _check_paced(s: Session, diag: dict[str, float]) -> None:
    s.check(
        diag["bench.sched_lag_p90_ms"] < SCHED_LAG_LIMIT_MS,
        f"paced generator ran {diag['bench.sched_lag_p90_ms']:.1f} ms late (p90)",
    )
    if s.full_scale and diag["paced.latency_drift"] > DRIFT_LIMIT:
        s.failed = s.attempted
        s.notes.append(
            f"offered rate not sustainable: latency drift "
            f"{diag['paced.latency_drift']:.2f}"
        )


def _goodput_loss_pct(bare: Pass, other: Pass) -> float:
    return (bare.goodput_MBps - other.goodput_MBps) / bare.goodput_MBps * 100


def measure_traced(s: Session) -> dict[str, Any]:
    """The per-layer numbers of one workload (see ``layers``)."""
    w = s.w
    m: dict[str, float] = {}
    spans: dict[str, Any] = {}
    if w.kind == "sim":
        # The sim's layers are two timed public calls; there is nothing
        # to interpose, hence no tracing overhead to report.
        p = s.note_sim(sim_pass(s.seed, s.n))
        m["plan.build_ms"] = p.build_s * 1e3
        m["sim.run_s"] = p.run_s
        m["sim.time_ratio"] = p.sim_s / p.wall_s
    else:
        if s.render_ms:
            m["data.render_ms"] = statistics.fmean(s.render_ms)
        bare = s.note(live_pass(w, s.corpus, s.n))
        # The interposed paced pass is half length: its waterfall needs
        # fewer samples than the tail percentile of the bare pass does.
        traced_n = max(w.min_chunks, s.n // 2) if w.kind == "paced" else s.n
        probed, part_a, rows = layers.interposed_pass(w, s.corpus, traced_n)
        s.note(probed)
        m.update(part_a)
        if w.kind == "paced":
            diag = layers.paced_diagnostics(bare)
            _check_paced(s, diag)
            m.update(diag)
            before = statistics.median(bare.latencies_ms)
            after = statistics.median(probed.latencies_ms)
            m["bench.trace_overhead_pct"] = (after - before) / before * 100
        else:
            m["bench.trace_overhead_pct"] = _goodput_loss_pct(bare, probed)
        if w.name == "small_null":
            # Telemetry's cost at the size where it is largest.
            observed = s.note(live_pass(w, s.corpus, s.n, telemetry=True))
            m["telemetry.overhead_pct"] = _goodput_loss_pct(bare, observed)
        serial = layers.serial_pass(w, s.corpus, s.serial_n)
        s.attempted += s.serial_n
        s.failed += serial.failed
        m.update(serial.metrics)
        s.check(
            ratio_in_band(w, m["compress.ratio"]),
            f"corpus ratio {m['compress.ratio']:.2f} outside band",
        )
        s.check(
            not s.full_scale  # a handful of chunks is mostly first-call cost
            or m["bench.serial_closure"] >= CLOSURE_FLOOR
            or serial.unaccounted_us <= BOOKKEEPING_US,
            f"serial closure {m['bench.serial_closure']:.3f} below floor "
            f"({serial.unaccounted_us:.0f} us per chunk unaccounted)",
        )
        spans = {"waterfall": rows, "serial": serial.spans}
    out: dict[str, Any] = {"chunks_per_repeat": s.n}
    out.update(s.verdict())
    out["per_layer"] = m
    if w.kind != "sim":
        out["binding_stage"] = layers.binding_stage(m)
    out["spans"] = spans
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("untraced", "traced"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    ap.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.time() when the parent spawned this process",
    )
    args = ap.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    w = WORKLOADS[args.workload]
    out: dict[str, Any] = {"workload": w.name, "mode": args.mode}
    reason = unmeasured_reason(w)
    if reason is not None:
        out.update(status="unmeasured", reason=reason)
    else:
        session = Session(w, args.seed, args.seconds)
        setup_s = time.time() - spawned_at
        out["status"] = "measured"
        if args.mode == "untraced":
            out.update(measure_untraced(session))
            # One process, one set-up, one high-water mark: n = 1.
            out["end_to_end"]["setup_s"] = stat([setup_s])
            out["end_to_end"]["peak_rss_MB"] = stat([peak_rss_MB()])
        else:
            out.update(measure_traced(session))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
