"""Model ablations beyond the paper's exhibits (EXPERIMENTS.md, "Beyond
the paper"): each isolates one mechanism or planner decision and pins
what turning it off costs.
"""

import dataclasses
import functools

import pytest

from repro.core.config import ScenarioConfig, StageConfig, StreamConfig
from repro.core.dynamic import DynamicRebalancer
from repro.core.params import APS_LAN_PATH, CostModel
from repro.core.placement import PlacementSpec
from repro.core.runtime import SimRuntime, run_scenario
from repro.core.tables import TABLE1, TABLE2, TABLE3
from repro.experiments.fig05 import placement_cores, streaming_scenario
from repro.experiments.fig08 import micro_scenario
from repro.experiments.fig11 import network_scenario
from repro.experiments.fig12 import e2e_scenario
from repro.experiments.fig14 import multi_stream_scenario
from repro.hw.machine import Machine
from repro.hw.presets import lynxdtn_spec, updraft_spec
from repro.hw.topology import CoreId
from repro.sim.engine import Engine
from repro.util.rng import derive_seed

# ---------------------------------------------------------------------------
# single-stream pipeline variants (compression on/off, dedicated ingest cores)
# ---------------------------------------------------------------------------

INGEST = [CoreId(s, i) for s in (0, 1) for i in range(12, 16)]
COMPRESS = [CoreId(s, i) for s in (0, 1) for i in range(0, 12)]


def pipeline_scenario(*, compression=True, dedicated_ingest=True):
    """updraft1 -> lynxdtn over the APS LAN with the planner's layout:
    ingest on its own cores, 32 compressors, 8 send/recv on the NIC
    socket, 16 decompressors split over both."""
    common = dict(
        stream_id="s",
        sender="updraft1",
        receiver="lynxdtn",
        path="aps-lan",
        num_chunks=250,
        send=StageConfig(8, PlacementSpec.socket(1)),
        recv=StageConfig(8, PlacementSpec.socket(1)),
    )
    if dedicated_ingest:
        ingest = PlacementSpec.pinned(INGEST)
        compress = PlacementSpec.pinned(COMPRESS)
    else:
        ingest = PlacementSpec.split([0, 1])
        compress = PlacementSpec.split([0, 1])  # overlaps ingest cores
    if compression:
        stream = StreamConfig(
            **common,
            ingest=StageConfig(8, ingest),
            compress=StageConfig(32, compress),
            decompress=StageConfig(16, PlacementSpec.split([0, 1])),
        )
    else:
        stream = StreamConfig(
            **common,
            ratio_mean=1.0,
            ratio_sigma=0.0,
            ingest=StageConfig(8, ingest),
        )
    return ScenarioConfig(
        name=f"ablation-comp{compression}-ingest{dedicated_ingest}",
        machines={"updraft1": updraft_spec(), "lynxdtn": lynxdtn_spec()},
        paths={"aps-lan": APS_LAN_PATH},
        streams=[stream],
    )


@functools.cache
def planned_stream():
    """The full planned pipeline — both ablations' reference side."""
    return run_scenario(pipeline_scenario()).streams["s"]


def test_compression_halves_wire_traffic():
    """§1's motivating claim: at a 2x ratio the same delivered rate
    needs half the network."""
    with_c = planned_stream()
    without = run_scenario(pipeline_scenario(compression=False)).streams["s"]
    # Both deliver ~95-100 Gbps to the consumer...
    assert with_c.delivered_gbps == pytest.approx(without.delivered_gbps, rel=0.1)
    # ...but compression moves half the bytes over the network.
    assert with_c.wire_gbps == pytest.approx(0.5 * without.wire_gbps, rel=0.1)


def test_dedicated_ingest_cores_matter():
    """DESIGN.md §4: the source-reader stage must own its cores; max-min
    CPU sharing with 32 hungry compression threads starves it and
    throttles the whole pipeline."""
    planned = planned_stream().delivered_gbps
    shared = run_scenario(
        pipeline_scenario(dedicated_ingest=False)
    ).total_delivered_gbps
    assert planned >= 1.25 * shared
    assert planned == pytest.approx(97.0, rel=0.1)


# ---------------------------------------------------------------------------
# context-switch penalty (Observation 2)
# ---------------------------------------------------------------------------


def oversubscription_ratio(csw_penalty):
    """Single-domain over both-domain compression rate at 32 threads."""

    def throughput(label):
        sc = micro_scenario("compress", TABLE1[label], 32)
        sc.csw_penalty = csw_penalty
        (stream,) = run_scenario(sc).streams.values()
        return stream.stage_gbps["compress"]

    return throughput("A") / throughput("E")


@pytest.mark.parametrize("csw", [0.0, 0.04, 0.12])
def test_oversubscription_ratio(csw):
    """Figure 8a's "nearly halved" at 2x oversubscription: even κ=0
    halves it (pure capacity), larger κ degrades further."""
    ratio = oversubscription_ratio(csw)
    if csw == 0.0:
        assert ratio == pytest.approx(0.5, abs=0.02)
    else:
        assert ratio < 0.5
        assert ratio == pytest.approx(0.5 * (1 - csw), abs=0.03)


# ---------------------------------------------------------------------------
# the §6 future-work dynamic rebalancer
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_dynamic_rebalancer_recovers_os_gap(fig14_full):
    """OS placement + the topology-aware rebalancer should recover most
    of the gap between OS placement and the statically planned runtime.
    Both ends of the gap are the Figure-14 run; only the rebalanced OS
    run is new, on the same scenario and seed as the OS end."""
    os_gbps = fig14_full.data["os"]["e2e"]
    planned_gbps = fig14_full.data["runtime"]["e2e"]
    scenario = multi_stream_scenario(
        runtime_placement=False, seed=derive_seed(7, "fig14-os", 0)
    )
    rt = SimRuntime(scenario)
    DynamicRebalancer(
        rt.engine,
        rt.schedulers["lynxdtn"],
        scenario.machines["lynxdtn"],
        nic_socket=1,
        interval=0.02,
    ).start()
    dyn_gbps = rt.run().total_delivered_gbps
    assert dyn_gbps > os_gbps * 1.1
    # Recovers at least 60% of the OS-to-planned gap.
    assert (dyn_gbps - os_gbps) >= 0.6 * (planned_gbps - os_gbps)


# ---------------------------------------------------------------------------
# inter-stage queue depth
# ---------------------------------------------------------------------------


@functools.cache
def queue_throughput(depth):
    sc = e2e_scenario(TABLE3["F"], 8, 1)
    for stream in sc.streams:
        stream.queue_capacity = depth
    (stream,) = run_scenario(sc).streams.values()
    return stream.delivered_gbps


@pytest.mark.parametrize("depth", [1, 2, 4, 16])
def test_queue_depth(depth, quick_result):
    """Every depth stays within 10 % of Figure 12's value for the same
    scenario (F, 8 send/recv threads, NUMA 1); depth 1 pays a convoy
    loss.  (The prose "≈ 97 Gbps" was never this scenario's number: the
    model gives ≈ 90 — see EXPERIMENTS.md.)"""
    fig12_value = quick_result("fig12").data["results"]["F/8/N1"]
    gbps = queue_throughput(depth)
    assert gbps == pytest.approx(fig12_value, rel=0.1)
    if depth == 1:
        assert gbps < fig12_value


def test_depth_monotone_then_flat():
    d1, d2, d4, d16 = (queue_throughput(d) for d in (1, 2, 4, 16))
    assert d1 <= d2 <= d4
    # Returns diminish past a few chunks of buffering; very deep queues
    # can even cost a little by letting work-stealing run bursty.
    assert d16 == pytest.approx(d4, rel=0.06)


# ---------------------------------------------------------------------------
# what creates the 15% NUMA receive penalty
# ---------------------------------------------------------------------------


def numa_gap(cost):
    """NUMA-1 over NUMA-0 single-thread throughput ratio."""

    def throughput(label):
        sc = network_scenario(TABLE2[label], 1)
        sc.cost = cost
        (stream,) = run_scenario(sc).streams.values()
        return stream.wire_gbps

    return throughput("D") / throughput("A")


REMOTE_CASES = {
    "full model": CostModel(),
    "no cpu stall": CostModel(remote_stall_factor=1.0),
    "no window shrink": CostModel(remote_stream_penalty=1.0),
    "neither": CostModel(remote_stall_factor=1.0, remote_stream_penalty=1.0),
}


@pytest.mark.parametrize("case", list(REMOTE_CASES))
def test_remote_penalty_decomposition(case):
    """The per-byte CPU stall on remote loads and the window-shrink on
    capped streams each contribute; together they produce the paper's
    ~15% (Figures 5/11)."""
    gap = numa_gap(REMOTE_CASES[case])
    if case == "full model":
        assert gap == pytest.approx(1.15, abs=0.04)
    elif case == "neither":
        assert gap == pytest.approx(1.0, abs=0.01)
    else:
        # One mechanism alone still produces a gap; with the stream cap
        # removed the CPU stall shows its full 1.18.
        assert 1.0 <= gap <= 1.19


# ---------------------------------------------------------------------------
# RSS/IRQ steering (the §2.2 mechanism)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["spread", "single"])
def test_irq_layout(layout):
    """The Figure-5 receiver with the NIC's IRQs pinned to one core (the
    classic misconfiguration) versus spread."""
    sc = streaming_scenario(16, placement_cores("N1"), num_chunks=20)
    lynx = sc.machines["lynxdtn"]
    nics = tuple(dataclasses.replace(n, irq_layout=layout) for n in lynx.nics)
    sc.machines["lynxdtn"] = dataclasses.replace(lynx, nics=nics)
    gbps = run_scenario(sc).total_wire_gbps
    if layout == "spread":
        assert gbps == pytest.approx(194.0, rel=0.03)
    else:
        # All kernel RX serialized on one core: capped near the
        # softirq_rate (8.25 GB/s ≈ 66 Gbps).
        assert gbps <= 70.0


def test_rss_spreads_streams_over_queues():
    """Sanity: the hash actually distributes the 16 Figure-5 streams."""
    nic = Machine(Engine(), lynxdtn_spec()).nic()
    assert len({nic.rss_queue(f"p{i}/0") for i in range(16)}) >= 8
