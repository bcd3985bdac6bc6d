"""The paper's numbers, pinned with their tolerances.

Each pin is computed from the narrowest thing that yields the number:
the ``quick=True`` result ``test_quick_run_claims_hold`` already
computed (Figs 5, 7, 8, 9, 12's A/F cells, the sensitivity defaults),
one extra scenario where the quick sweep lacks the cell (Fig 6's
two-socket config, Fig 12's config G, the remaining sensitivity
points), or — for Fig 14 alone, whose pins do not hold at quick size —
the full-size run.  Tolerances are the paper's; a red pin means the
model moved, not that the tolerance should.
"""

import pytest

from repro.core.tables import TABLE1, TABLE3
from repro.experiments import fig06, fig08, fig11, fig12, sensitivity


def test_fig05_numa1_edge_and_peak(quick_result):
    data = quick_result("fig5").data["results"]
    # Paper's headline for this figure: 190+ Gbps on the receiver side
    # and the 15% NUMA-1 advantage below saturation.
    assert data["8/N1"] / data["8/N0"] >= 1.1
    assert max(v for k, v in data.items() if k.endswith("N1")) >= 185.0


def test_fig06_two_socket_config_lights_both_sockets():
    # 32P_16c_N0,1 lights up both sockets (at NIC saturation each recv
    # thread only needs ~0.2 of a core; NUMA-1 cores add softIRQ load).
    both, _ = fig06.measure_maps(fig06.UsageConfig(32, 16, "N0,1"), num_chunks=40)
    assert any(v > 0.1 for k, v in both.items() if "/s0c" in k)
    assert any(v > 0.1 for k, v in both.items() if "/s1c" in k)


def test_fig07_remote_access_by_domain(quick_result):
    remote = quick_result("fig7").data["remote"]
    # N0 placements pull every received byte across QPI; N1 placements
    # pull (almost) nothing.
    assert sum(remote["16P_4c_N0"].values()) > 3.0
    assert sum(remote["16P_4c_N1"].values()) <= 0.2


def test_fig08_compression_scaling(quick_result):
    data = quick_result("fig8").data["results"]
    # Obs 2's "nearly halved": 32 threads on one socket vs both.
    assert data["A/32"] / data["E/32"] == pytest.approx(0.48, abs=0.1)
    # Linear region: 1 -> 16 threads on a domain scales ~16x.
    assert data["A/16"] / data["A/1"] == pytest.approx(16.0, rel=0.1)


def test_fig08b_single_domain_core_map():
    # The 8b panel for config A at 32 threads: two threads on each of
    # the execution domain's 16 cores, nothing on the other socket.
    busy = {k for k, v in fig08.core_map(TABLE1["A"], 32).items() if v > 0.5}
    assert len(busy) == 16
    assert all("/s0c" in k for k in busy)


def test_fig09_decompression_scaling(quick_result):
    data = quick_result("fig9").data["results"]
    # Obs 3: the split configs win at 16 threads, by a LLC/MC-contention
    # margin, not a rounding error.
    assert data["E/16"] / data["A/16"] >= 1.15
    # OS packing lands between the single-domain and split configs.
    assert data["A/16"] < data["G/16"] < data["E/16"]


def test_fig11_network_study():
    # The full sweep (~1 s): the quick one stops at 4 threads.
    result = fig11.run(quick=False)
    failed = [k for k, ok in result.claims.items() if not ok]
    assert not failed, f"claims failed: {failed}\n{result.render()}"
    data = result.data["results"]
    # One local receive thread sustains ~33 Gbps; remote ~15% less.
    assert data["D/1"] == pytest.approx(33.0, rel=0.05)
    assert data["D/1"] / data["A/1"] == pytest.approx(1.15, abs=0.05)
    # Saturation at ~97 Gbps with 4+ threads for every configuration.
    for label in "ABCDE":
        assert data[f"{label}/8"] == pytest.approx(97.0, rel=0.05)


def test_fig12_end_to_end_speedup(quick_result):
    data = quick_result("fig12").data["results"]
    # The paper's 2.6X: F/G at 8 threads on NUMA 1 vs the A/B baseline.
    baseline = data["A/8/N1"]
    best = max(data["F/8/N1"], fig12.measure(TABLE3["G"], 8, 1))
    assert baseline == pytest.approx(37.0, rel=0.1)
    assert best == pytest.approx(97.0, rel=0.1)
    assert best / baseline == pytest.approx(2.6, rel=0.15)


@pytest.mark.slow
def test_fig14_multistream_headline(fig14_full):
    failed = [k for k, ok in fig14_full.claims.items() if not ok]
    assert not failed, f"claims failed: {failed}\n{fig14_full.render()}"
    # Paper: runtime 105.41 / 212.95 Gbps; OS 70.98 / 143.3; 1.48X.
    rt = fig14_full.data["runtime"]
    assert rt["e2e"] == pytest.approx(212.95, rel=0.08)
    assert rt["wire"] == pytest.approx(105.41, rel=0.12)
    assert fig14_full.data["speedup"] == pytest.approx(1.48, rel=0.15)


# ---------------------------------------------------------------------------
# sensitivity of the Fig 14 headline: only the points the assertions read
# ---------------------------------------------------------------------------

#: ``sensitivity.run(quick=True)``'s scenario size — a point is only
#: comparable with the cached quick ``default`` at the same size.
QUICK_CHUNKS = 50


def sensitivity_point(quick_result, name, value):
    """One cost-constant perturbation: from the quick tornado when it
    has the row, otherwise computed at the same size."""
    data = quick_result("sensitivity").data["results"]
    key = f"{name}={value:g}"
    if key in data:
        return data[key]
    return sensitivity.headline_speedup(
        cost_overrides={name: value}, num_chunks=QUICK_CHUNKS
    )


def test_sensitivity_packing_is_load_bearing(quick_result):
    data = quick_result("sensitivity").data["results"]
    # The attribution claim, numerically: packing off => speedup gone.
    assert data["wake_affinity=0"] < data["default"] - 0.2


@pytest.mark.parametrize(
    "name,value",
    [
        (name, value)
        for name, values in sensitivity.COST_PERTURBATIONS.items()
        if name.startswith(("remote_", "softirq"))
        for value in values
    ],
    ids=lambda v: f"{v:g}" if isinstance(v, float) else v,
)
def test_sensitivity_penalty_constants_barely_move_headline(
    quick_result, name, value
):
    default = quick_result("sensitivity").data["results"]["default"]
    assert abs(sensitivity_point(quick_result, name, value) - default) < 0.1


def test_sensitivity_llc_factor_is_the_one_lever(quick_result):
    # An extreme decompression LLC factor (8 B/B) chokes even the
    # runtime's 16-threads-on-one-socket decompression layout,
    # compressing the gap — the only constant with real leverage on the
    # headline, and still >1.1x.
    assert sensitivity_point(quick_result, "decompress_llc_factor", 8.0) >= 1.1


def test_sensitivity_pipeline_efficiency(quick_result):
    default = quick_result("sensitivity").data["results"]["default"]
    got = sensitivity_point(quick_result, "pipeline_efficiency", 0.8)
    assert abs(got - default) < 0.25
