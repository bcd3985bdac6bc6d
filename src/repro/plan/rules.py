"""The paper's §3 placement decision logic, as shared data and helpers.

Every layer that reasons about *where threads belong* — the generator's
planning passes, ``repro plan explain``, and the §6 online rebalancer
(:mod:`repro.core.dynamic`) — used to restate Observations 1–4 in its
own words.  This module is the single statement: which sockets each
stage targets on a given machine, and the one-line rationale the paper
gives for it.
"""

from __future__ import annotations

from repro.core.config import StageKind

#: Observation rationale per stage kind, the §3 decision logic verbatim
#: enough to annotate plans and explain placements.
RATIONALE: dict[StageKind, str] = {
    StageKind.INGEST: (
        "dedicated reader cores sized to the target rate - a starved "
        "reader throttles the whole pipeline (sender sizing rule)"
    ),
    StageKind.COMPRESS: (
        "all remaining sender cores; data/execution domain does not "
        "matter, never oversubscribe past ~2 threads/core (Obs 2)"
    ),
    StageKind.SEND: (
        "placement is irrelevant on the sender (Obs 4); co-located "
        "with compression cores on the NIC socket for free locality"
    ),
    StageKind.RECV: (
        "receive threads on cores of the NIC's NUMA domain, the "
        "socket's cores divided evenly between streams (Obs 1 / Obs 4)"
    ),
    StageKind.DECOMPRESS: (
        "decompression on the non-NIC socket(s), spread evenly, off "
        "the receive cores to dodge LLC/MC contention (Obs 3)"
    ),
    StageKind.EGEST: (
        "sink writers ride with decompression output; placement is "
        "not throughput-critical (Figure 2 delivery)"
    ),
}

#: Rationale used for OS-baseline plans (the §4.2 comparison).
OS_BASELINE_RATIONALE = (
    "OS-managed: same task counts, placement left to the (modelled) "
    "kernel scheduler - the paper's baseline"
)

#: Reason strings the online rebalancer reports; kept here so dynamic
#: reconfiguration and static planning quote the same decision logic.
REBALANCE_REASONS = {
    "recv": "recv belongs on NIC socket (Obs 1/4)",
    "decompress": "decompress off the NIC socket (Obs 3)",
    "imbalance": "load imbalance",
}


def rationale_for(kind: StageKind, *, numa_aware: bool = True) -> str:
    """The one-line placement rationale for one stage kind."""
    if not numa_aware:
        return OS_BASELINE_RATIONALE
    return RATIONALE[kind]
