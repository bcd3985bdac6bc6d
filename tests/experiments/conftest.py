"""Experiment results shared across this package's modules.

The experiments are deterministic per seed, so each is computed at most
once per session: the claim checks in ``test_experiments.py`` and the
numeric pins in ``test_paper_numbers.py`` / ``test_ablations.py`` read
the same (treat-as-immutable) ``ExperimentResult``.
"""

import pytest

from repro.experiments import fig14, get_experiment


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result("fig8")`` -> that experiment's ``quick=True`` result."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = get_experiment(name)(quick=True)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def fig14_full():
    """Figure 14 at full size (250 chunks), one OS rep — the one exhibit
    whose paper pins do not hold on the quick run (~20 s: ``slow``)."""
    return fig14.run(quick=False, reps=1)
