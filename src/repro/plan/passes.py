"""The planner: ``generate -> validate -> normalize -> lower``.

:func:`run_passes` validates a plan (collecting *every* finding as a
diagnostic) and then normalizes it.  When a
:class:`~repro.telemetry.Telemetry` is attached, each step is timed as
a span named ``plan.validate`` / ``plan.normalize`` and counted in the
``plan_passes_total`` metric family, so planning shows up in the same
traces and dashboards as the pipelines it plans.

Generation is a front-end, not a pass: the generator
(:class:`repro.core.generator.ConfigGenerator`) and the scenario lift
(:func:`repro.plan.ingest.plan_from_scenario`) both *produce* the plan
the passes then run over.  Lowering is the exit:
:func:`build_scenario` / :func:`build_live` bolt the matching lowering
onto the standard passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.plan.diagnostics import Diagnostics
from repro.plan.ir import PipelinePlan
from repro.plan.lower import LiveLowering, lower_live, lower_sim
from repro.plan.normalize import normalize_plan
from repro.plan.validate import validate_plan
from repro.telemetry.spans import ActiveSpan, stage_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import ScenarioConfig
    from repro.telemetry.facade import Telemetry


@dataclass
class PlanResult:
    """A planner run: the transformed plan plus everything it found."""

    plan: PipelinePlan
    diagnostics: Diagnostics

    @property
    def ok(self) -> bool:
        return self.diagnostics.ok


def _step(telemetry: "Telemetry | None", name: str) -> ActiveSpan:
    """Time ``plan.<name>``; the span lands when telemetry is attached."""
    return stage_span(telemetry, f"plan.{name}", track="plan")


def run_passes(
    plan: PipelinePlan,
    *,
    telemetry: "Telemetry | None" = None,
    strict: bool = True,
) -> PlanResult:
    """Validate, then normalize.

    ``strict=True`` (default) raises one
    :class:`~repro.util.errors.ConfigurationError` listing *all*
    collected errors after both steps ran; ``strict=False`` returns the
    diagnostics for the caller to inspect (``repro plan explain``
    prints them).
    """
    diagnostics = Diagnostics()
    with _step(telemetry, "validate"):
        diagnostics.extend(validate_plan(plan))
    with _step(telemetry, "normalize"):
        plan = normalize_plan(plan)
    if telemetry is not None:
        passes = telemetry.registry.counter(
            "plan_passes_total", "Planner passes executed", ("pass", "plan")
        )
        for name in ("validate", "normalize"):
            passes.labels(**{"pass": name, "plan": plan.name}).inc()
        if diagnostics:
            found = telemetry.registry.counter(
                "plan_diagnostics_total",
                "Validation findings by severity",
                ("severity",),
            )
            for severity, n in diagnostics.counts().items():
                if n:
                    found.labels(severity=severity).inc(n)
    if strict:
        diagnostics.raise_if_errors()
    return PlanResult(plan=plan, diagnostics=diagnostics)


def build_scenario(
    plan: PipelinePlan, *, telemetry: "Telemetry | None" = None
) -> "ScenarioConfig":
    """Standard passes, then the sim lowering."""
    result = run_passes(plan, telemetry=telemetry)
    with _step(telemetry, "lower_sim"):
        return lower_sim(result.plan)


def build_live(
    plan: PipelinePlan,
    stream_id: str | None = None,
    *,
    codec: str | None = None,
    host_cpus: int | None = None,
    telemetry: "Telemetry | None" = None,
) -> LiveLowering:
    """Standard passes, then the live lowering."""
    result = run_passes(plan, telemetry=telemetry)
    with _step(telemetry, "lower_live"):
        return lower_live(
            result.plan, stream_id, codec=codec, host_cpus=host_cpus
        )


def through_plan(
    scenario: "ScenarioConfig",
    *,
    policy: str = "manual",
    telemetry: "Telemetry | None" = None,
) -> "ScenarioConfig":
    """Round a hand-built scenario through the plan layer.

    The experiment drivers' path to the IR: lift, run the standard
    passes, lower back to an equivalent (validated, normalized)
    scenario.  Guarantees hand-built exhibits exercise the same
    pipeline the generator does.
    """
    from repro.plan.ingest import plan_from_scenario

    plan = plan_from_scenario(scenario, policy=policy)
    return build_scenario(plan, telemetry=telemetry)
