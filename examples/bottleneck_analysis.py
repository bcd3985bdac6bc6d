#!/usr/bin/env python3
"""Bottleneck analysis with per-chunk stage spans.

§4.1 of the paper narrates how "the bottlenecks within the end-to-end
pipeline shift across different segments" as the thread configuration
changes.  This example makes that observable: it runs three Table-3
configurations with telemetry attached and prints, for each, the per-stage
service times, the queue waits (where backpressure piles up), and the
detected bottleneck stage.

Run:  python examples/bottleneck_analysis.py
"""

from repro.core.runtime import SimRuntime
from repro.core.tables import TABLE3
from repro.experiments.fig12 import e2e_scenario


def analyze(label: str) -> None:
    cfg = TABLE3[label]
    scenario = e2e_scenario(cfg, sr_threads=8, recv_domain=1, num_chunks=120)
    rt = SimRuntime(scenario, telemetry=True)
    result = rt.run()
    (stream,) = result.streams.values()
    sid = scenario.streams[0].stream_id
    print(f"config {label} ({cfg.compress_threads}C/{cfg.decompress_threads}D): "
          f"{stream.delivered_gbps:.1f} Gbps end-to-end")
    print(rt.telemetry.pipeline_report(sid).render())
    print()


def main() -> None:
    print("tracing three Table-3 configurations (8 send/recv threads, "
          "NUMA-1 receivers):\n")
    for label in ("A", "E", "F"):
        analyze(label)
    print("reading the tables: the bottleneck stage has the largest")
    print("service time per chunk; the stage AFTER it shows queue wait")
    print("(chunks sit in the inter-stage queue under backpressure).")


if __name__ == "__main__":
    main()
