"""Engine and flow-network edge cases beyond the basics."""

import pytest

from repro.sim.engine import Engine, Interrupt
from repro.sim.flows import Flow, FlowNetwork, Resource
from repro.util.errors import SimulationError


class TestEngineEdges:
    def test_run_until_past_heap_advances_clock(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_run_empty_heap_no_until(self):
        eng = Engine()
        eng.run()
        assert eng.now == 0.0

    def test_process_waiting_on_processed_event_rejected(self):
        eng = Engine()
        t = eng.timeout(0.5)
        eng.run()
        assert t.processed

        def late():
            yield t

        eng.process(late())
        with pytest.raises(SimulationError, match="already-processed"):
            eng.run()

    def test_all_of_with_processed_event_rejected(self):
        eng = Engine()
        t = eng.timeout(0.1)
        eng.run()
        with pytest.raises(SimulationError):
            eng.all_of([t])

    def test_interrupt_then_new_wait(self):
        """An interrupted process can wait on a fresh event afterwards."""
        eng = Engine()
        log = []

        def proc():
            try:
                yield eng.timeout(100.0)
            except Interrupt:
                log.append(("interrupted", eng.now))
            yield eng.timeout(2.0)
            log.append(("done", eng.now))

        p = eng.process(proc())

        def poker():
            yield eng.timeout(1.0)
            p.interrupt()

        eng.process(poker())
        eng.run()
        assert log == [("interrupted", 1.0), ("done", 3.0)]
        # Crucially: the stale 100s timeout no longer resumes the process.
        assert eng.now == pytest.approx(100.0)  # heap drained through it

    def test_nested_processes_three_deep(self):
        eng = Engine()

        def leaf():
            yield eng.timeout(1.0)
            return 1

        def mid():
            v = yield eng.process(leaf())
            return v + 1

        def top():
            v = yield eng.process(mid())
            return v + 1

        assert eng.run(eng.process(top())) == 3


class TestFlowNetworkEdges:
    def test_cancel_vectorized_population(self):
        """Cancellation reallocates correctly on the numpy path."""
        eng = Engine()
        net = FlowNetwork(eng)
        r = Resource("r", 30.0)
        flows = [Flow(300.0, {r: 1.0}) for _ in range(30)]
        for f in flows:
            net.run(f)
        eng.run(1e-9)
        assert flows[0].rate == pytest.approx(1.0)
        for f in flows[1:]:
            net.cancel(f)
        eng.run(eng.timeout(1e-9))
        assert flows[0].rate == pytest.approx(30.0)

    def test_flow_tags_survive(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = Resource("r", 10.0)
        f = Flow(1.0, {r: 1.0}, tags={"label": "x", "core": "c0"})
        done = net.run(f)
        assert eng.run(done) is f
        assert f.tags["label"] == "x"

    def test_done_fraction(self):
        eng = Engine()
        net = FlowNetwork(eng)
        r = Resource("r", 10.0)
        f = Flow(100.0, {r: 1.0})
        net.run(f)
        eng.run(until=5.0)
        net._advance()
        assert f.done_fraction == pytest.approx(0.5)
