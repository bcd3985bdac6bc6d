"""Every paper exhibit regenerates with its qualitative claims intact.

These run the quick variants (reduced sweeps), computed once per session
(``conftest.quick_result``); the paper's numeric pins on the same results
are in ``test_paper_numbers.py``.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment
from repro.util.errors import ValidationError


class TestRegistry:
    def test_all_paper_exhibits_present(self):
        assert {
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig14",
        } <= set(EXPERIMENTS)

    def test_extensions_present(self):
        assert "sensitivity" in EXPERIMENTS

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            get_experiment("fig99")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_run_claims_hold(name, quick_result):
    result = quick_result(name)
    assert result.experiment == name
    failed = [k for k, ok in result.claims.items() if not ok]
    assert not failed, f"{name} failed claims: {failed}\n{result.render()}"
    assert result.table.rows, f"{name} produced no table rows"


def test_render_includes_claims(quick_result):
    result = quick_result("fig9")
    text = result.render()
    assert "PASS" in text
    assert "Figure 9a" in text
