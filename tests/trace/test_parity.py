"""Sim-vs-live trace parity: one assembler, two substrates, one schema.

The simulator records spans on its virtual clock, the live pipeline on
the wall clock; :func:`repro.telemetry.assemble` must produce
schema-identical traces from both — same canonical stage topology over
the stages the substrates share, same handoff edges — so a trace read
from a sim what-if run transfers to a live deployment (satellite of
PR 10).
"""

import numpy as np
import pytest

from repro.core.generator import ConfigGenerator, StreamRequest, Workload
from repro.core.runtime import SimRuntime
from repro.data.chunking import Chunk
from repro.experiments.base import paper_testbed
from repro.live.runtime import LiveConfig, LivePipeline
from repro.telemetry import Telemetry
from repro.telemetry import assemble, critical_path
from repro.util.rng import make_rng

N_CHUNKS = 6

#: Canonical stages both substrates instrument (live loopback has no
#: egest stage; the wire span exists on both).
COMMON_STAGES = {"feed", "compress", "send", "wire", "recv", "decompress"}


def _payload_chunks(n=N_CHUNKS, size=4096, stream="det1", seed=0):
    rng = make_rng(seed, "trace-parity")
    for i in range(n):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        yield Chunk(stream_id=stream, index=i, nbytes=size, payload=data)


@pytest.fixture(scope="module")
def live_traces():
    tel = Telemetry()
    report = LivePipeline(
        LiveConfig(codec="zlib", trace_sample=1), telemetry=tel
    ).run(_payload_chunks())
    assert report.ok, report.errors
    return assemble(tel.spans.snapshot())


@pytest.fixture(scope="module")
def sim_traces():
    workload = Workload(
        [StreamRequest("det1", "updraft1", "lynxdtn", "aps-lan",
                       num_chunks=N_CHUNKS)],
        name="trace-parity",
        seed=7,
    )
    scenario = ConfigGenerator(paper_testbed()).generate(workload)
    runtime = SimRuntime(scenario, telemetry=True)
    runtime.run()
    return assemble(runtime.telemetry.spans.snapshot())


def _common_topology(trace):
    return tuple(s for s in trace.stage_order() if s in COMMON_STAGES)


class TestTopologyParity:
    def test_both_substrates_trace_every_chunk(self, live_traces, sim_traces):
        assert {t.chunk_id for t in live_traces} == set(range(N_CHUNKS))
        assert {t.chunk_id for t in sim_traces} == set(range(N_CHUNKS))

    def test_identical_stage_topology_on_common_stages(
        self, live_traces, sim_traces
    ):
        live_topos = {_common_topology(t) for t in live_traces}
        sim_topos = {_common_topology(t) for t in sim_traces}
        assert live_topos == sim_topos == {
            ("feed", "compress", "send", "wire", "recv", "decompress"),
        }

    def test_identical_handoff_edges_on_common_stages(
        self, live_traces, sim_traces
    ):
        def common_edges(trace):
            return tuple(
                (a, b) for a, b in trace.edges()
                if a in COMMON_STAGES and b in COMMON_STAGES
            )

        live_edges = {common_edges(t) for t in live_traces}
        sim_edges = {common_edges(t) for t in sim_traces}
        assert live_edges == sim_edges


class TestSchemaParity:
    def test_to_dict_documents_are_schema_identical(
        self, live_traces, sim_traces
    ):
        live_doc = live_traces[0].to_dict()
        sim_doc = sim_traces[0].to_dict()
        assert set(live_doc) == set(sim_doc)
        assert set(live_doc["waterfall"]) == set(sim_doc["waterfall"])
        assert set(live_doc["spans"][0]) == set(sim_doc["spans"][0])

    def test_waterfalls_decompose_on_both_substrates(
        self, live_traces, sim_traces
    ):
        for traces in (live_traces, sim_traces):
            wf = traces[0].waterfall()
            assert wf["total"] > 0
            assert wf["stage_work"] > 0
            assert wf["wire"] >= 0

    def test_critical_path_names_a_common_stage_on_both(
        self, live_traces, sim_traces
    ):
        for traces in (live_traces, sim_traces):
            verdict = critical_path(traces)["det1"]
            assert verdict.stage in COMMON_STAGES | {"egest"}
            assert 0.0 < verdict.share <= 1.0

    def test_sim_clock_is_virtual(self, sim_traces):
        # Sim spans sit on the virtual clock (starts at 0); a wall-clock
        # leak would put them ~1.7e9 seconds out.
        assert all(t.end < 1e6 for t in sim_traces)
