"""Experiment harness: one module per paper figure/table.

Every module exposes ``run(quick=False, reps=...) -> ExperimentResult``
that regenerates the corresponding exhibit's rows (same sweep axes, same
configurations) and carries machine-checkable qualitative claims —
who wins, by what factor, where the crossovers sit.  ``tests/experiments``
runs these, asserts the claims and pins the paper's numbers;
``repro experiment <id>`` prints the tables.

Index (see DESIGN.md §5 for the full mapping):

========  ==========================================================
fig5      receiver throughput vs #streaming processes × NUMA domain
fig6      core-usage maps for selected Fig-5 configurations
fig7      per-core normalized remote-memory-access maps
fig8      compression throughput & core maps, Table 1 configs A–H
fig9      decompression throughput & core maps, Table 1 configs A–H
fig11     network throughput vs thread count, Table 2 configs A–E
fig12     single-stream end-to-end, Table 3 configs × receiver domain
fig14     4-stream aggregate, runtime placement vs OS placement
========  ==========================================================
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["EXPERIMENTS", "ExperimentResult", "get_experiment"]
