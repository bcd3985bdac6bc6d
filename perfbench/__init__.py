"""The benchmark of record: paper-scale goodput, paced latency and a
layer budget over seven workloads.  See ``perfbench/README.md``."""
