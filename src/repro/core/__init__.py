"""The NUMA-aware streaming runtime — the paper's contribution.

Layers:

- :mod:`repro.core.params` — the calibrated cost model and network paths;
- :mod:`repro.core.knowledge` — the hardware knowledge base (§5);
- :mod:`repro.core.config` — declarative scenario configuration, and
  the one declaration of the stream and run fields the plan IR shares
  (files are read and written by :mod:`repro.plan.serialize`);
- :mod:`repro.core.placement` — placement policies (pin / numa-bind /
  split / OS-managed);
- :mod:`repro.core.generator` — the runtime configuration generator
  (Figure 4) that plans NUMA-aware scenarios, plus the OS baseline;
- :mod:`repro.core.tasks` / :mod:`repro.core.runtime` — the simulated
  heterogeneous software pipeline (Figure 2) and its orchestrator;
- :mod:`repro.core.tables` — the paper's Tables 1–3 as data;
- :mod:`repro.core.dynamic` — §6's future-work dynamic rebalancer.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import (
        FaultSpec,
        ScenarioConfig,
        StageConfig,
        StageKind,
        StreamConfig,
    )
    from repro.core.dynamic import DynamicRebalancer
    from repro.core.generator import ConfigGenerator, StreamRequest, Workload
    from repro.core.knowledge import HardwareKnowledgeBase
    from repro.core.params import (
        ALCF_APS_PATH,
        APS_LAN_PATH,
        CostModel,
        PathSpec,
    )
    from repro.core.placement import PlacementSpec, ThreadHome, resolve_placement
    from repro.core.results import RunResult, result_envelope, write_result_json
    from repro.core.runtime import (
        ScenarioResult,
        SimRuntime,
        StreamResult,
        run_scenario,
    )
    from repro.core.tables import TABLE1, TABLE2, TABLE3

# Names load on first access: ``repro.plan.ir`` imports
# ``repro.core.config``, and an eager package would pull in the
# generator, which imports ``repro.plan.ir`` back.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.config": (
        "FaultSpec", "ScenarioConfig", "StageConfig", "StageKind",
        "StreamConfig",
    ),
    "repro.core.dynamic": ("DynamicRebalancer",),
    "repro.core.generator": ("ConfigGenerator", "StreamRequest", "Workload"),
    "repro.core.knowledge": ("HardwareKnowledgeBase",),
    "repro.core.params": ("ALCF_APS_PATH", "APS_LAN_PATH", "CostModel", "PathSpec"),
    "repro.core.placement": ("PlacementSpec", "ThreadHome", "resolve_placement"),
    "repro.core.results": ("RunResult", "result_envelope", "write_result_json"),
    "repro.core.runtime": (
        "ScenarioResult", "SimRuntime", "StreamResult", "run_scenario",
    ),
    "repro.core.tables": ("TABLE1", "TABLE2", "TABLE3"),
})
