"""Fluid (flow-level) model of shared hardware resources.

Every piece of shared hardware — a CPU core, a socket's memory
controller, a QPI link direction, a NIC — is a :class:`Resource` with a
capacity in *units per second* (core-seconds/s, bytes/s, bits/s).  A unit
of pipeline work (compress one chunk, receive one chunk) is a
:class:`Flow` carrying

- ``work``: how many work units it needs (typically bytes of payload),
- ``demands``: how much of each resource one work unit consumes, e.g.
  ``{core7: 1/0.58e9, mc0: 1.0, qpi01: 1.0, mc1: 0.5}`` for "compress a
  byte read remotely from socket 0 while running on socket 1".

The :class:`FlowNetwork` assigns each active flow a rate via progressive
filling (max-min fairness): all flows' rates grow together until some
resource saturates; flows crossing that resource freeze; repeat.  This is
the classic fluid approximation used by flow-level network simulators,
and it is exact for the steady-state questions the paper's evaluation
asks (sustained Gbps under contention).

Rates are recomputed only when the flow population changes (arrival,
completion, cancellation), so the cost is ``O(events × flows ×
resources)`` — trivially fast for pipeline-scale populations.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from typing import Any

import numpy as np

from repro.sim.engine import Engine, Event, URGENT
from repro.util.errors import SimulationError, ValidationError

#: Relative slack used to decide a flow has finished (floating point).
_REL_EPS = 1e-9
_ABS_EPS = 1e-6


class Resource:
    """A shared capacity (bytes/s, core-seconds/s, bits/s ...)."""

    __slots__ = ("name", "capacity", "tags")

    def __init__(self, name: str, capacity: float, **tags: Any) -> None:
        if capacity <= 0:
            raise ValidationError(f"resource {name!r} capacity must be > 0")
        self.name = name
        self.capacity = float(capacity)
        self.tags = tags

    def effective_capacity(self, nflows: int) -> float:
        """Capacity offered when ``nflows`` flows are using the resource.

        Plain resources are load-independent; :class:`CoreResource`
        overrides this to model context-switch overhead.
        """
        return self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.name} cap={self.capacity:g}>"


class CoreResource(Resource):
    """A CPU core whose deliverable capacity shrinks when oversubscribed.

    With ``n`` runnable software threads on one hardware core, context
    switching and cache thrash remove roughly ``csw_penalty`` of capacity
    per extra thread (Observation 2: going from 1 to 2 threads/core
    "nearly halves" per-thread compression speed — i.e. aggregate drops
    slightly below 1.0).
    """

    __slots__ = ("csw_penalty", "min_efficiency")

    def __init__(
        self,
        name: str,
        capacity: float = 1.0,
        csw_penalty: float = 0.03,
        min_efficiency: float = 0.5,
        **tags: Any,
    ) -> None:
        super().__init__(name, capacity, **tags)
        if not 0.0 <= csw_penalty < 1.0:
            raise ValidationError("csw_penalty must be in [0, 1)")
        self.csw_penalty = csw_penalty
        self.min_efficiency = min_efficiency

    def effective_capacity(self, nflows: int) -> float:
        if nflows <= 1:
            return self.capacity
        eff = max(self.min_efficiency, 1.0 - self.csw_penalty * (nflows - 1))
        return self.capacity * eff


class Flow:
    """A unit of work moving through shared resources at a fluid rate."""

    __slots__ = (
        "work",
        "remaining",
        "demands",
        "weight",
        "max_rate",
        "tags",
        "rate",
        "completion",
        "_active",
        "_cols",
        "_vals",
    )

    def __init__(
        self,
        work: float,
        demands: Mapping[Resource, float],
        *,
        weight: float = 1.0,
        max_rate: float | None = None,
        tags: Mapping[str, Any] | None = None,
    ) -> None:
        if work < 0:
            raise ValidationError(f"flow work must be >= 0, got {work}")
        if weight <= 0:
            raise ValidationError("flow weight must be > 0")
        if max_rate is not None and max_rate <= 0:
            raise ValidationError("flow max_rate must be > 0")
        cleaned = {r: float(d) for r, d in demands.items() if d > 0.0}
        if any(d < 0 for d in demands.values()):
            raise ValidationError("flow demands must be non-negative")
        if not cleaned and max_rate is None and work > 0:
            raise ValidationError(
                "flow with positive work needs at least one demand or a max_rate"
            )
        self.work = float(work)
        self.remaining = float(work)
        self.demands = cleaned
        self.weight = float(weight)
        self.max_rate = max_rate
        self.tags: dict[str, Any] = dict(tags or {})
        self.rate = 0.0
        self.completion: Event | None = None
        self._active = False

    @property
    def done_fraction(self) -> float:
        if self.work == 0:
            return 1.0
        return 1.0 - self.remaining / self.work

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Flow {self.tags.get('label', '?')} remaining={self.remaining:g}"
            f" rate={self.rate:g}>"
        )


#: Observer signature: (t0, t1, active_flows) — flows carry their rate
#: over [t0, t1]; called just before rates change.
IntervalObserver = Callable[[float, float, list[Flow]], None]


class FlowNetwork:
    """Tracks active flows and assigns max-min fair rates."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._flows: list[Flow] = []
        self._last_t = engine.now
        self._version = 0
        self._observers: list[IntervalObserver] = []
        # Allocator caches: a stable column index per resource and
        # per-resource capacity/penalty arrays (grown on first sighting).
        self._res_index: dict[Resource, int] = {}
        self._res_caps: list[float] = []
        self._res_penalty: list[float] = []
        self._res_min_eff: list[float] = []

    # -- public API ------------------------------------------------------

    def add_observer(self, fn: IntervalObserver) -> None:
        """Register a metrics observer called on every rate interval."""
        self._observers.append(fn)

    def run(self, flow: Flow) -> Event:
        """Start ``flow``; returns the event fired (with the flow) on completion."""
        if flow._active or flow.completion is not None:
            raise SimulationError("flow started twice")
        flow.completion = self.engine.event()
        if flow.work <= 0.0:
            flow.completion.trigger(flow)
            return flow.completion
        flow._active = True
        self._register_columns(flow)
        self._flows.append(flow)
        self._reallocate()
        return flow.completion

    def cancel(self, flow: Flow) -> None:
        """Abort an active flow; its completion event never fires."""
        if not flow._active:
            raise SimulationError("cancel() on inactive flow")
        self._advance()
        flow._active = False
        self._flows.remove(flow)
        self._reallocate(advanced=True)

    # -- allocation ------------------------------------------------------

    def _advance(self) -> None:
        """Progress remaining work up to ``engine.now`` at current rates."""
        now = self.engine.now
        dt = now - self._last_t
        if dt < 0:
            raise SimulationError("flow network clock went backwards")
        if dt > 0.0:
            for obs in self._observers:
                obs(self._last_t, now, list(self._flows))
            for f in self._flows:
                if f.rate > 0.0:
                    f.remaining = max(0.0, f.remaining - f.rate * dt)
        self._last_t = now

    def _reallocate(self, *, advanced: bool = False) -> None:
        if not advanced:
            self._advance()
        self._compute_rates()
        self._version += 1
        self._schedule_next_completion()

    def _compute_rates_scalar(self) -> None:
        """Progressive filling in plain Python: the oracle
        ``tests/sim/test_flows.py::test_paths_agree`` holds
        :meth:`_compute_rates` to.  Nothing else calls it."""
        flows = self._flows
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
                if f.max_rate is not None and rates[i] >= f.max_rate - _REL_EPS * f.max_rate:
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
        for f, r in zip(flows, rates):
            f.rate = r

    def _register_columns(self, flow: Flow) -> None:
        """Assign stable matrix columns to a flow's resources (cached)."""
        cols = []
        vals = []
        for r, d in flow.demands.items():
            idx = self._res_index.get(r)
            if idx is None:
                idx = len(self._res_index)
                self._res_index[r] = idx
                self._res_caps.append(r.capacity)
                if isinstance(r, CoreResource):
                    self._res_penalty.append(r.csw_penalty)
                    self._res_min_eff.append(r.min_efficiency)
                else:
                    self._res_penalty.append(0.0)
                    self._res_min_eff.append(1.0)
            cols.append(idx)
            vals.append(d)
        flow._cols = np.asarray(cols, dtype=np.intp)
        flow._vals = np.asarray(vals, dtype=float)

    def _compute_rates(self) -> None:
        """Progressive filling over dense arrays (numpy), at every
        population size.

        Identical semantics to :meth:`_compute_rates_scalar` — a
        differential property test pins the two against each other.
        Profiling shows rate allocation dominates large scenarios
        (Figure 5 with 128 streams; on a fig14 pair nine in ten calls
        see 24 flows or more, median 64); cached per-flow demand
        columns amortize it.
        """
        flows = self._flows
        if not flows:
            return
        n = len(flows)
        m = len(self._res_index)
        # Per-resource flow population -> effective capacities
        # (CoreResource context-switch model, vectorized).
        users = np.zeros(m)
        for f in flows:
            users[f._cols] += 1.0
        caps_arr = np.asarray(self._res_caps)
        penalty = np.asarray(self._res_penalty)
        min_eff = np.asarray(self._res_min_eff)
        eff = np.clip(1.0 - penalty * np.maximum(users - 1.0, 0.0), min_eff, 1.0)
        residual = caps_arr * eff
        sat_eps = _REL_EPS * caps_arr

        weights = np.array([f.weight for f in flows])
        flow_caps = np.array(
            [math.inf if f.max_rate is None else f.max_rate for f in flows]
        )
        rates = np.zeros(n)
        active = np.ones(n, dtype=bool)
        # Dense demand matrix built once per reallocation from cached
        # column indices; loads are then exact matmuls each round (an
        # incremental-update variant accumulated floating-point dust
        # that poisoned the saturation test).
        demand = np.zeros((n, m))
        for i, f in enumerate(flows):
            demand[i, f._cols] = f._vals
        touches = demand > 0.0

        for _ in range(n + m + 1):
            if not active.any():
                break
            w_eff = np.where(active, weights, 0.0)
            load = w_eff @ demand
            used = load > 0.0
            alpha = math.inf
            if used.any():
                alpha = float(np.min(residual[used] / load[used]))
            headroom = (flow_caps[active] - rates[active]) / weights[active]
            if headroom.size:
                alpha = min(alpha, float(np.min(headroom)))
            if not math.isfinite(alpha):
                raise SimulationError(
                    "unbounded flow rate: a flow has neither resource "
                    "demands nor a max_rate"
                )
            alpha = max(alpha, 0.0)
            rates += w_eff * alpha
            residual -= load * alpha
            saturated = residual <= sat_eps
            at_cap = np.isfinite(flow_caps) & (
                rates >= flow_caps * (1.0 - _REL_EPS)
            )
            frozen = active & at_cap
            if saturated.any():
                frozen |= active & touches[:, saturated].any(axis=1)
            if not frozen.any():
                # Guarantee progress: freeze flows on the bottleneck
                # resource (mirrors the scalar fallback).
                if used.any():
                    ratios = np.where(
                        used, residual / np.where(used, load, 1.0), math.inf
                    )
                    b = int(np.argmin(ratios))
                    frozen = active & touches[:, b]
                if not frozen.any():  # pragma: no cover - cap handling
                    break
            active &= ~frozen
        for f, r in zip(flows, rates):
            f.rate = float(r)

    def _schedule_next_completion(self) -> None:
        next_dt = math.inf
        for f in self._flows:
            if f.rate > 0.0:
                next_dt = min(next_dt, f.remaining / f.rate)
        if not math.isfinite(next_dt):
            if self._flows:
                # All active flows starved (rate 0) — with max-min fairness
                # this can only happen if a resource has zero effective
                # capacity, which Resource forbids.
                raise SimulationError("all active flows starved at rate 0")
            return
        version = self._version
        timer = self.engine.timeout(max(next_dt, 0.0))
        timer.callbacks.append(lambda _ev: self._on_timer(version))

    def _on_timer(self, version: int) -> None:
        if version != self._version:
            return  # superseded by a newer allocation
        self._advance()
        finished = [
            f
            for f in self._flows
            if f.remaining <= max(_ABS_EPS, _REL_EPS * f.work)
        ]
        if not finished:
            # Numerical drift: reschedule from the same allocation.
            self._version += 1
            self._schedule_next_completion()
            return
        for f in finished:
            f.remaining = 0.0
            f._active = False
            self._flows.remove(f)
        # Trigger completions *before* new arrivals can run (URGENT), so
        # pipeline processes observe a consistent order.
        for f in finished:
            assert f.completion is not None
            f.completion.trigger(f, priority=URGENT)
        self._reallocate(advanced=True)
