"""The pass-based planner: strictness, telemetry, blessed entry points."""

import pytest

from repro.plan.serialize import scenario_to_dict
from repro.plan.ir import PipelinePlan
from repro.plan.passes import (
    build_live,
    build_scenario,
    run_passes,
    through_plan,
)
from repro.telemetry import Telemetry
from repro.util.errors import ConfigurationError


def broken_plan():
    return PipelinePlan(name="broken", machines={}, paths={}, streams=[])


class TestPlanner:
    def test_default_pipeline(self, generated_plan):
        """Validate runs before normalize (diagnostics name the plan as
        written, not as canonicalized)."""
        tel = Telemetry()
        run_passes(generated_plan, telemetry=tel)
        spans = sorted(tel.spans.snapshot(), key=lambda s: s.start)
        assert [s.stage for s in spans] == ["plan.validate", "plan.normalize"]

    def test_strict_raises_aggregate(self):
        with pytest.raises(ConfigurationError, match="has no streams"):
            run_passes(broken_plan())

    def test_non_strict_returns_diagnostics(self):
        result = run_passes(broken_plan(), strict=False)
        assert not result.ok
        assert any(d.code == "no-streams" for d in result.diagnostics.errors)

    def test_clean_plan_result(self, generated_plan):
        result = run_passes(generated_plan)
        assert result.ok
        # Normalization ran: edges derived, canonical order.
        assert all(s.edges for s in result.plan.streams)


class TestPlannerTelemetry:
    def test_spans_and_counters(self, generated_plan):
        tel = Telemetry()
        run_passes(generated_plan, telemetry=tel)
        assert {"plan.validate", "plan.normalize"} <= tel.spans.stages()
        for name in ("validate", "normalize"):
            assert tel.counter_value(
                "plan_passes_total", **{"pass": name, "plan": generated_plan.name}
            ) == 1.0

    def test_diagnostic_counter(self):
        tel = Telemetry()
        result = run_passes(broken_plan(), telemetry=tel, strict=False)
        errors = len(result.diagnostics.errors)
        assert errors >= 1
        assert tel.counter_value(
            "plan_diagnostics_total", severity="error"
        ) == float(errors)

    def test_lowering_span(self, generated_plan):
        tel = Telemetry()
        build_scenario(generated_plan, telemetry=tel)
        assert "plan.lower_sim" in tel.spans.stages()


class TestEntryPoints:
    def test_build_scenario(self, generated_plan):
        scenario = build_scenario(generated_plan)
        scenario.validate()
        assert scenario.name == generated_plan.name

    def test_build_scenario_strict(self):
        with pytest.raises(ConfigurationError):
            build_scenario(broken_plan())

    def test_build_live(self, generated_plan):
        lowered = build_live(generated_plan, host_cpus=64)
        assert lowered.config.connections >= 1
        assert "recv" in lowered.affinity

    def test_through_plan_is_output_identical(self, hand_scenario):
        sc = hand_scenario()
        assert scenario_to_dict(through_plan(sc)) == scenario_to_dict(sc)

    def test_through_plan_respects_policy(self, hand_scenario):
        sc = hand_scenario()
        out = through_plan(sc, policy="os_baseline")
        assert scenario_to_dict(out) == scenario_to_dict(sc)
