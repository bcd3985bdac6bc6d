"""repro — NUMA-aware runtime system for scientific data streaming.

A from-scratch reproduction of *"Throughput Optimization with a
NUMA-Aware Runtime System for Efficient Scientific Data Streaming"*
(SC 2023, INDIS workshop): a heterogeneous software pipeline
(compress → send → receive → decompress) whose task counts and NUMA
placements are planned from a hardware knowledge base, evaluated on a
fluid discrete-event model of the paper's testbed, with a real LZ4
codec, synthetic tomographic data, and a live (thread + socket) pipeline
for functional end-to-end runs.

Quick start::

    from repro import (
        ConfigGenerator, HardwareKnowledgeBase, Workload, StreamRequest,
        run_scenario, lynxdtn_spec, updraft_spec, APS_LAN_PATH,
    )

    kb = HardwareKnowledgeBase()
    kb.add_machine(updraft_spec())
    kb.add_machine(lynxdtn_spec())
    kb.add_path(APS_LAN_PATH)
    plan = ConfigGenerator(kb).generate(Workload([StreamRequest(
        "s1", "updraft1", "lynxdtn", "aps-lan")]))
    result = run_scenario(plan)
    print(result.total_delivered_gbps)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured audit of every figure and table.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.compress import (
        Codec,
        LZ4Codec,
        NullCodec,
        available_codecs,
        get_codec,
    )
    from repro.core import (
        ALCF_APS_PATH,
        APS_LAN_PATH,
        ConfigGenerator,
        CostModel,
        DynamicRebalancer,
        HardwareKnowledgeBase,
        PathSpec,
        PlacementSpec,
        ScenarioConfig,
        ScenarioResult,
        SimRuntime,
        StageConfig,
        StageKind,
        StreamConfig,
        StreamRequest,
        StreamResult,
        TABLE1,
        TABLE2,
        TABLE3,
        Workload,
        run_scenario,
    )
    from repro.data import Chunk, SpheresDataset, SpheresPhantom
    from repro.hw import (
        CoreId,
        Machine,
        MachineSpec,
        NicSpec,
        SocketSpec,
        lynxdtn_spec,
        polaris_spec,
        updraft_spec,
    )
    from repro.osmodel import AffinityMask, FirstTouchAllocator, OsScheduler

__version__ = "1.0.0"

# Names load on first access, so importing one submodule — a compressor
# process importing ``repro.mp.workers`` — does not pay for the planner
# and the simulator.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.compress": (
        "Codec", "LZ4Codec", "NullCodec", "available_codecs", "get_codec",
    ),
    "repro.core": (
        "ALCF_APS_PATH", "APS_LAN_PATH", "ConfigGenerator", "CostModel",
        "DynamicRebalancer", "HardwareKnowledgeBase", "PathSpec",
        "PlacementSpec", "ScenarioConfig", "ScenarioResult", "SimRuntime",
        "StageConfig", "StageKind", "StreamConfig", "StreamRequest",
        "StreamResult", "TABLE1", "TABLE2", "TABLE3", "Workload",
        "run_scenario",
    ),
    "repro.data": ("Chunk", "SpheresDataset", "SpheresPhantom"),
    "repro.hw": (
        "CoreId", "Machine", "MachineSpec", "NicSpec", "SocketSpec",
        "lynxdtn_spec", "polaris_spec", "updraft_spec",
    ),
    "repro.osmodel": ("AffinityMask", "FirstTouchAllocator", "OsScheduler"),
})
__all__.append("__version__")
