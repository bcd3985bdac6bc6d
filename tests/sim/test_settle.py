"""The flow network solves rates once per simulated instant.

A population change (arrival, completion, cancel) only schedules a
settle event after the instant's ordinary events; these tests count
``_compute_rates`` calls, which repeat exactly where a wall-clock gate
would not.
"""

import gc
import math

import pytest

from repro.core.runtime import run_scenario
from repro.experiments.fig14 import multi_stream_scenario
from repro.sim.engine import Engine
from repro.sim.flows import Flow, FlowNetwork, Resource
from repro.util.errors import SimulationError


@pytest.fixture
def solves(monkeypatch):
    """Simulated times of every ``_compute_rates`` call."""
    times = []
    solve = FlowNetwork._compute_rates

    def counted(net):
        times.append(net.engine.now)
        solve(net)

    monkeypatch.setattr(FlowNetwork, "_compute_rates", counted)
    return times


def make_net():
    eng = Engine()
    return eng, FlowNetwork(eng)


class TestOneSolvePerInstant:
    def test_k_arrivals_one_solve(self, solves):
        eng, net = make_net()
        r = Resource("r", 10.0)
        flows = [Flow(100.0, {r: 1.0}) for _ in range(5)]
        for f in flows:
            net.run(f)
        assert solves == []  # nothing solved before the instant settles
        eng.run(eng.now)
        assert solves == [0.0]
        assert [f.rate for f in flows] == pytest.approx([2.0] * 5)

    def test_completion_and_waiters_arrivals_one_solve(self, solves):
        eng, net = make_net()
        r = Resource("r", 10.0)
        short, long = Flow(10.0, {r: 1.0}), Flow(100.0, {r: 1.0})
        started = []

        def waiter():
            yield net.run(short)  # done at t=2, both at 5/s
            started.extend(Flow(100.0, {r: 1.0}) for _ in range(2))
            for f in started:
                net.run(f)

        net.run(long)
        eng.process(waiter())
        eng.run(2.5)
        assert solves == [0.0, pytest.approx(2.0)]
        for f in (long, *started):
            assert f.rate == pytest.approx(10.0 / 3)

    def test_cancel_then_run_one_solve(self, solves):
        eng, net = make_net()
        r = Resource("r", 10.0)
        f1, f2, f3 = (Flow(100.0, {r: 1.0}) for _ in range(3))

        def swap():
            yield eng.timeout(1.0)
            net.cancel(f1)
            net.run(f3)

        net.run(f1)
        net.run(f2)
        eng.process(swap())
        eng.run(1.5)
        assert solves == [0.0, 1.0]
        assert f2.rate == pytest.approx(5.0)
        assert f3.rate == pytest.approx(5.0)


class TestSameTimeTie:
    def test_timeout_set_later_in_the_instant_runs_first(self):
        """The settle schedules the completion timer, so a timeout set
        later in the same instant for the same time runs before the
        flow's waiter (solving on every change ran the waiter first)."""
        eng, net = make_net()
        r = Resource("r", 1.0)
        order = []

        def worker():
            yield net.run(Flow(1.0, {r: 1.0}))  # done at exactly t=1
            order.append("flow")

        def sleeper():
            yield eng.timeout(1.0)
            order.append("timeout")

        eng.process(worker())
        eng.process(sleeper())
        eng.run()
        assert order == ["timeout", "flow"]


class TestFinishedFlows:
    def test_freed_without_the_cycle_collector(self):
        def live_flows():
            return sum(isinstance(o, Flow) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_flows()
            eng, net = make_net()
            r = Resource("r", 10.0)

            def worker():
                for _ in range(3):
                    yield net.run(Flow(10.0, {r: 1.0}))

            eng.process(worker())
            eng.run()
            assert live_flows() == before
        finally:
            gc.enable()

    def test_finished_flow_cannot_restart(self):
        eng, net = make_net()
        f = Flow(10.0, {Resource("r", 10.0): 1.0})
        eng.run(net.run(f))
        with pytest.raises(SimulationError, match="started twice"):
            net.run(f)


class TestFig14Pair:
    """One 36-chunk seed-7 fig14 pair, runtime then OS placement."""

    def test_solve_count_and_delivered_gbps(self, solves):
        pair = [
            multi_stream_scenario(runtime_placement=placed, seed=7, num_chunks=36)
            for placed in (True, False)
        ]
        runtime, baseline = (run_scenario(s) for s in pair)
        # Solving on every population change took 2 954 calls; 1 726 of
        # them were at the instant of the previous one.
        assert 0 < len(solves) <= 1226
        # The same numbers as solving on every change: the skipped
        # solves' rates were never integrated.
        gbps = (runtime.total_delivered_gbps, baseline.total_delivered_gbps)
        for got, want in zip(gbps, (217.54425032460784, 148.31396056589935)):
            assert math.isclose(got, want, rel_tol=1e-12)
