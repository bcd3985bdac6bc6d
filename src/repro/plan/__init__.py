"""repro.plan — the substrate-neutral pipeline plan IR and planner.

One :class:`PipelinePlan` describes a run; a pass pipeline
(``generate -> validate -> normalize -> lower``) turns it into what
either substrate executes — the simulator's
:class:`~repro.core.config.ScenarioConfig` via :func:`lower_sim`, or
the live pipeline's :class:`~repro.live.runtime.LiveConfig` plus CPU
affinity via :func:`lower_live`.  Validation collects *every*
violation as located diagnostics instead of raising at the first.

Exports resolve lazily: :mod:`repro.core.config` calls into this
package for diagnostics, so eager imports here would cycle.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    # ir
    "PipelinePlan": "repro.plan.ir",
    "StreamNode": "repro.plan.ir",
    "StageNode": "repro.plan.ir",
    "QueueEdge": "repro.plan.ir",
    "ExecutionNode": "repro.plan.ir",
    "CodecNode": "repro.plan.ir",
    "TraceNode": "repro.plan.ir",
    "STAGE_ORDER": "repro.plan.ir",
    "POLICIES": "repro.plan.ir",
    # diagnostics
    "Diagnostic": "repro.plan.diagnostics",
    "Diagnostics": "repro.plan.diagnostics",
    # ingest
    "plan_from_scenario": "repro.plan.ingest",
    "stream_from_config": "repro.plan.ingest",
    # passes
    "PlanResult": "repro.plan.passes",
    "run_passes": "repro.plan.passes",
    "build_scenario": "repro.plan.passes",
    "build_live": "repro.plan.passes",
    "through_plan": "repro.plan.passes",
    # individual passes
    "validate_plan": "repro.plan.validate",
    "normalize_plan": "repro.plan.normalize",
    "derive_edges": "repro.plan.normalize",
    # lowering
    "lower_sim": "repro.plan.lower",
    "lower_live": "repro.plan.lower",
    "stream_affinity": "repro.plan.lower",
    "LiveLowering": "repro.plan.lower",
    "LIVE_STAGES": "repro.plan.lower",
    # explain / diff
    "explain_plan": "repro.plan.explain",
    "diff_plans": "repro.plan.diff",
    "substrate_drift": "repro.plan.diff",
    # delta (the structured form of a plan diff)
    "PlanDelta": "repro.plan.delta",
    "ScaleStage": "repro.plan.delta",
    "MoveStage": "repro.plan.delta",
    "SetCodec": "repro.plan.delta",
    "plan_delta": "repro.plan.delta",
    "delta_to_dict": "repro.plan.delta",
    # serialization (the one document: v3 plans, v1/v2 scenarios)
    "plan_to_dict": "repro.plan.serialize",
    "plan_from_dict": "repro.plan.serialize",
    "plan_to_json": "repro.plan.serialize",
    "plan_from_json": "repro.plan.serialize",
    "save_plan": "repro.plan.serialize",
    "load_plan": "repro.plan.serialize",
    "PLAN_VERSION": "repro.plan.serialize",
    "scenario_to_dict": "repro.plan.serialize",
    "scenario_from_dict": "repro.plan.serialize",
    "scenario_to_json": "repro.plan.serialize",
    "scenario_from_json": "repro.plan.serialize",
    "save_scenario": "repro.plan.serialize",
    "load_scenario": "repro.plan.serialize",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return __all__
