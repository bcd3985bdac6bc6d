"""Fluid flow network: max-min fair allocation and completions."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Engine
from repro.sim.flows import _REL_EPS, CoreResource, Flow, FlowNetwork, Resource
from repro.util.errors import SimulationError, ValidationError


def scalar_rates(flows):
    """Progressive filling in plain Python over ``flows`` (a network's
    active set, in order): the oracle ``FlowNetwork._compute_rates`` is
    held to.  Returns the rates; the flows are left untouched."""
    # Per-resource flow population (for load-dependent capacities).
    users: dict[Resource, int] = {}
    for f in flows:
        for r in f.demands:
            users[r] = users.get(r, 0) + 1
    residual: dict[Resource, float] = {
        r: r.effective_capacity(n) for r, n in users.items()
    }
    unfrozen = set(range(len(flows)))
    rates = [0.0] * len(flows)
    # Progressive filling: grow all unfrozen rates by a common alpha
    # (weighted) until a resource saturates or a flow hits its cap.
    for _ in range(len(flows) + len(residual) + 1):
        if not unfrozen:
            break
        load: dict[Resource, float] = {}
        for i in unfrozen:
            f = flows[i]
            for r, d in f.demands.items():
                load[r] = load.get(r, 0.0) + f.weight * d
        alpha = math.inf
        bottleneck: Resource | None = None
        for r, ld in load.items():
            if ld <= 0.0:
                continue
            a = residual[r] / ld
            if a < alpha:
                alpha, bottleneck = a, r
        capped: list[int] = []
        for i in unfrozen:
            f = flows[i]
            if f.max_rate is not None:
                a = (f.max_rate - rates[i]) / f.weight
                if a < alpha:
                    alpha = a
                    bottleneck = None
        if not math.isfinite(alpha):
            raise SimulationError(
                "unbounded flow rate: a flow has neither resource demands "
                "nor a max_rate"
            )
        alpha = max(alpha, 0.0)
        for i in unfrozen:
            f = flows[i]
            rates[i] += f.weight * alpha
            for r, d in f.demands.items():
                residual[r] -= f.weight * d * alpha
            cap = f.max_rate
            if cap is not None and rates[i] >= cap - _REL_EPS * cap:
                capped.append(i)
        # Freeze flows on saturated resources and capped flows.
        saturated = {
            r for r, res in residual.items() if res <= _REL_EPS * r.capacity
        }
        frozen = {
            i
            for i in unfrozen
            if any(r in saturated for r in flows[i].demands)
        }
        frozen.update(capped)
        if not frozen:
            # Defensive: progressive filling must freeze someone each
            # round; bail out rather than loop forever.
            if bottleneck is not None:
                frozen = {
                    i
                    for i in unfrozen
                    if bottleneck in flows[i].demands
                }
            else:  # pragma: no cover - cap handling above catches this
                break
        unfrozen -= frozen
    return rates


def make_net():
    eng = Engine()
    return eng, FlowNetwork(eng)


class TestFlowValidation:
    def test_negative_work_rejected(self):
        r = Resource("r", 1.0)
        with pytest.raises(ValidationError):
            Flow(-1, {r: 1.0})

    def test_negative_demand_rejected(self):
        r = Resource("r", 1.0)
        with pytest.raises(ValidationError):
            Flow(1, {r: -1.0})

    def test_no_demand_no_cap_rejected(self):
        with pytest.raises(ValidationError):
            Flow(1, {})

    def test_cap_only_flow_allowed(self):
        Flow(1, {}, max_rate=5.0)

    def test_zero_demand_dropped(self):
        r = Resource("r", 1.0)
        f = Flow(1, {r: 0.0}, max_rate=1.0)
        assert f.demands == {}

    def test_bad_weight(self):
        r = Resource("r", 1.0)
        with pytest.raises(ValidationError):
            Flow(1, {r: 1.0}, weight=0)


class TestResource:
    def test_capacity_positive(self):
        with pytest.raises(ValidationError):
            Resource("r", 0.0)

    def test_plain_capacity_load_independent(self):
        r = Resource("r", 10.0)
        assert r.effective_capacity(1) == r.effective_capacity(100) == 10.0

    def test_core_oversubscription_penalty(self):
        c = CoreResource("c", 1.0, csw_penalty=0.05)
        assert c.effective_capacity(1) == 1.0
        assert c.effective_capacity(2) == pytest.approx(0.95)
        assert c.effective_capacity(3) == pytest.approx(0.90)

    def test_core_min_efficiency_floor(self):
        c = CoreResource("c", 1.0, csw_penalty=0.1, min_efficiency=0.6)
        assert c.effective_capacity(50) == pytest.approx(0.6)

    def test_core_penalty_validation(self):
        with pytest.raises(ValidationError):
            CoreResource("c", 1.0, csw_penalty=1.5)


class TestSingleFlow:
    def test_completion_time(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        done = net.run(Flow(100, {r: 1.0}))
        eng.run(done)
        assert eng.now == pytest.approx(10.0)

    def test_zero_work_completes_immediately(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        done = net.run(Flow(0, {r: 1.0}))
        eng.run(done)
        assert eng.now == 0.0

    def test_max_rate_cap(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        done = net.run(Flow(10, {r: 1.0}, max_rate=2.0))
        eng.run(done)
        assert eng.now == pytest.approx(5.0)

    def test_demand_scales_consumption(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        # 2 resource-units per work unit: rate = 5 work/s.
        done = net.run(Flow(10, {r: 2.0}))
        eng.run(done)
        assert eng.now == pytest.approx(2.0)

    def test_flow_started_twice_raises(self):
        eng, net = make_net()
        r = Resource("r", 1.0)
        f = Flow(1, {r: 1.0})
        net.run(f)
        with pytest.raises(SimulationError):
            net.run(f)


class TestFairSharing:
    def test_equal_split(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        f1, f2 = Flow(100, {r: 1.0}), Flow(100, {r: 1.0})
        d1, d2 = net.run(f1), net.run(f2)
        eng.run(d1)
        assert eng.now == pytest.approx(20.0)
        eng.run(d2)
        assert eng.now == pytest.approx(20.0)

    def test_weighted_split(self):
        eng, net = make_net()
        r = Resource("r", 12.0)
        fast = Flow(100, {r: 1.0}, weight=2.0)
        slow = Flow(100, {r: 1.0}, weight=1.0)
        net.run(fast)
        net.run(slow)
        eng.run(1e-9)
        assert fast.rate == pytest.approx(8.0)
        assert slow.rate == pytest.approx(4.0)

    def test_capped_flow_releases_share(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        capped = Flow(1000, {r: 1.0}, max_rate=2.0)
        greedy = Flow(1000, {r: 1.0})
        net.run(capped)
        net.run(greedy)
        eng.run(1e-9)
        assert capped.rate == pytest.approx(2.0)
        assert greedy.rate == pytest.approx(8.0)

    def test_departure_reallocates(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        short = Flow(10, {r: 1.0})
        long = Flow(100, {r: 1.0})
        d_short, d_long = net.run(short), net.run(long)
        eng.run(d_short)
        assert eng.now == pytest.approx(2.0)  # both at 5/s
        eng.run(d_long)
        # long did 10 units by t=2, then 90 at 10/s.
        assert eng.now == pytest.approx(11.0)

    def test_multi_resource_bottleneck(self):
        eng, net = make_net()
        a = Resource("a", 10.0)
        b = Resource("b", 4.0)
        f1 = Flow(100, {a: 1.0})  # only a
        f2 = Flow(100, {a: 1.0, b: 1.0})  # bottlenecked by b
        net.run(f1)
        net.run(f2)
        eng.run(1e-9)
        assert f2.rate == pytest.approx(4.0)
        assert f1.rate == pytest.approx(6.0)

    def test_progressive_filling_three_tiers(self):
        eng, net = make_net()
        r = Resource("r", 30.0)
        f1 = Flow(1e6, {r: 1.0}, max_rate=5.0)
        f2 = Flow(1e6, {r: 1.0}, max_rate=10.0)
        f3 = Flow(1e6, {r: 1.0})
        for f in (f1, f2, f3):
            net.run(f)
        eng.run(1e-9)
        assert f1.rate == pytest.approx(5.0)
        assert f2.rate == pytest.approx(10.0)
        assert f3.rate == pytest.approx(15.0)


class TestCoreSharing:
    def test_two_threads_nearly_halve(self):
        eng, net = make_net()
        c = CoreResource("c", 1.0, csw_penalty=0.04)
        f1 = Flow(10, {c: 1.0})
        f2 = Flow(10, {c: 1.0})
        net.run(f1)
        net.run(f2)
        eng.run(1e-9)
        assert f1.rate == pytest.approx(0.48)
        assert f2.rate == pytest.approx(0.48)


class TestCancel:
    def test_cancel_releases_capacity(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        f1 = Flow(100, {r: 1.0})
        f2 = Flow(100, {r: 1.0})
        net.run(f1)
        d2 = net.run(f2)

        def canceller():
            yield eng.timeout(2.0)
            net.cancel(f1)

        eng.process(canceller())
        eng.run(d2)
        # f2: 10 units by t=2 (5/s), then 90 at 10/s => t = 11.
        assert eng.now == pytest.approx(11.0)

    def test_cancel_inactive_raises(self):
        eng, net = make_net()
        r = Resource("r", 1.0)
        f = Flow(1, {r: 1.0})
        with pytest.raises(SimulationError):
            net.cancel(f)


class TestObservers:
    def test_interval_observer_sees_rates(self):
        eng, net = make_net()
        r = Resource("r", 10.0)
        intervals = []
        net.add_observer(lambda t0, t1, flows: intervals.append((t0, t1, len(flows))))
        done = net.run(Flow(100, {r: 1.0}))
        eng.run(done)
        assert intervals, "observer never called"
        t0, t1, n = intervals[-1]
        assert t1 == pytest.approx(10.0)
        assert n == 1


class TestVectorizedParity:
    """The numpy allocation path must match the scalar reference."""

    @staticmethod
    def _random_population(seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        nres = int(rng.integers(2, 12))
        resources = [
            CoreResource(f"c{i}", float(rng.uniform(0.5, 2)), csw_penalty=0.05)
            if rng.random() < 0.4
            else Resource(f"r{i}", float(rng.uniform(1, 100)))
            for i in range(nres)
        ]
        flows = []
        for _ in range(int(rng.integers(1, 40))):
            k = int(rng.integers(1, min(4, nres) + 1))
            rs = rng.choice(nres, size=k, replace=False)
            flows.append(
                (
                    {resources[j]: float(rng.uniform(0.1, 3)) for j in rs},
                    float(rng.uniform(0.5, 20)) if rng.random() < 0.3 else None,
                    float(rng.uniform(0.5, 3)),
                )
            )
        return flows

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_paths_agree(self, seed):
        import numpy as np

        eng, net = make_net()
        flows = [
            Flow(100.0, d, max_rate=c, weight=w)
            for (d, c, w) in self._random_population(seed)
        ]
        for f in flows:
            net.run(f)
        eng.run(1e-12)
        vector = [f.rate for f in flows]
        assert np.allclose(scalar_rates(flows), vector, rtol=1e-7, atol=1e-9)

    def test_vectorized_full_lifecycle(self):
        """Completions, not just initial rates, agree with analysis."""
        eng = Engine()
        net = FlowNetwork(eng)
        r = Resource("r", 10.0)
        flows = [Flow(100, {r: 1.0}) for _ in range(4)]
        events = [net.run(f) for f in flows]
        eng.run(eng.all_of(events))
        # 4 equal flows, 100 work each at 2.5/s -> all done at t=40.
        assert eng.now == pytest.approx(40.0)


class TestMaxMinProperties:
    """Property-based checks of the allocator's fairness invariants."""

    @given(
        st.lists(
            st.tuples(
                st.floats(1.0, 100.0),  # work (unused for rates)
                st.floats(0.1, 5.0),  # demand on shared resource
                st.one_of(st.none(), st.floats(0.5, 20.0)),  # cap
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(5.0, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, flows_spec, capacity):
        eng, net = make_net()
        r = Resource("r", capacity)
        flows = [
            Flow(w, {r: d}, max_rate=cap) for (w, d, cap) in flows_spec
        ]
        for f in flows:
            net.run(f)
        eng.run(1e-12)
        used = sum(f.rate * f.demands.get(r, 0.0) for f in flows)
        assert used <= capacity * (1 + 1e-6)
        # Work conservation: either the resource is saturated or every
        # flow runs at its cap.
        saturated = used >= capacity * (1 - 1e-6)
        all_capped = all(
            f.max_rate is not None and f.rate >= f.max_rate * (1 - 1e-6)
            for f in flows
        )
        assert saturated or all_capped

    @given(st.integers(1, 10), st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_identical_flows_get_identical_rates(self, n, capacity):
        eng, net = make_net()
        r = Resource("r", capacity)
        flows = [Flow(50, {r: 1.0}) for _ in range(n)]
        for f in flows:
            net.run(f)
        eng.run(1e-12)
        rates = {round(f.rate, 9) for f in flows}
        assert len(rates) == 1
