"""The controller: obs signals in, applied plan deltas out.

One :meth:`Controller.poll` is one control cycle::

    drain new events (bus cursor) -> diagnose the binding constraint
    -> propose a PlanDelta -> validate against the plan -> apply
    through the Reconfigurable executor -> emit replan_* events

Diagnosis priority (most specific signal wins, one action per cycle):

1. ``stage_stall`` — a worker stopped beating: drain-and-respawn its
   stage (exactly-once holds; see docs/autotuning.md).
2. ``backpressure`` — a queue pinned at depth: scale the consuming
   stage up one worker.  A consumer that cannot scale, or is already
   at ``max_workers``, gets no action: the watchdog's event reports it.
3. ``bottleneck_shift`` — the busiest stage changed: scale the new
   bottleneck up one worker.
4. Quiet streak — ``scale_down_after`` consecutive signal-free polls:
   return the most recently grown stage one step toward its baseline.

Applied actions are damped by ``cooldown`` (clock seconds between
*applied* re-plans); every proposal, applied or not, is visible as
``replan_proposed`` / ``replan_applied`` / ``replan_rejected`` events
and ``repro_controller_*`` counters.

Determinism: the controller reads time only from the telemetry clock
and signals only from the event bus, processes them in emission order,
and iterates its own state in sorted order — so inside the simulator
(virtual clock, seeded workload) the full decision trace is a pure
function of the scenario.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.control.executor import Reconfigurable
from repro.obs.events import Event
from repro.plan.delta import (
    PlanDelta,
    ScaleStage,
    apply_delta,
    delta_to_dict,
)
from repro.plan.ir import ControlNode
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim types)
    from repro.plan.ir import PipelinePlan
    from repro.sim.engine import Engine
    from repro.sim.engine import Event as SimEvent

#: Stages whose worker sets the controller will try to scale.
SCALABLE_STAGES = ("compress", "decompress")

#: A queue the watchdog flagged stays "pinned" in the controller's
#: books until its gauge drains below this fraction of the alert depth
#: — mirroring the watchdog's own clear hysteresis.  Without this the
#: watchdog's latched alert (one event per episode) would let the
#: controller take exactly one step and stall short of the fix.
PINNED_CLEAR_RATIO = 0.5


@dataclass(frozen=True)
class Action:
    """One decided control action (the executor-facing half)."""

    kind: str  # "respawn" | "scale"
    stream: str
    stage: str
    value: int = 0
    delta: PlanDelta = PlanDelta()
    #: scale direction (True = grow) — drives scale-down bookkeeping.
    grow: bool = False

    def describe(self) -> str:
        if self.kind == "respawn":
            return f"respawn {self.stage} workers"
        return f"scale {self.stage} -> x{self.value}"


class Controller:
    """Turns watchdog events into live re-plans, without restart.

    Drive it like the watchdog: a daemon thread on the live pipeline
    (:meth:`start` / :meth:`stop`), a virtual-clock process in the
    simulator (:meth:`sim_process`), or :meth:`poll` by hand in tests.
    ``plan`` is optional — with one, every proposal is validated by
    :func:`repro.plan.delta.apply_delta` (strict=False) before it
    touches the runtime and the plan tracks the applied state; without
    one, proposals go straight to the executor.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        config: ControlNode | None = None,
        *,
        plan: "PipelinePlan | None" = None,
    ) -> None:
        self.telemetry = telemetry
        self.config = config or ControlNode(enabled=True)
        self.plan = plan
        self.executor: Reconfigurable | None = None
        registry = telemetry.registry
        self._polls = registry.counter(
            "repro_controller_polls_total",
            "Controller poll cycles completed",
        )
        self._proposals = registry.counter(
            "repro_controller_proposals_total",
            "Plan deltas proposed, by action kind",
            ("action",),
        )
        self._applied = registry.counter(
            "repro_controller_applied_total",
            "Plan deltas applied without restart, by action kind",
            ("action",),
        )
        self._rejected = registry.counter(
            "repro_controller_rejected_total",
            "Plan deltas rejected (validation or runtime refusal)",
            ("action",),
        )
        self._cursor = 0
        self._last_applied: float | None = None
        self._quiet_polls = 0
        #: (stream, stage) -> count before the controller's first grow,
        #: the floor scale-down returns toward.
        self._baseline: dict[tuple[str, str], int] = {}
        #: (stream, stage) grow order, newest last (scale-down order).
        self._grown: list[tuple[str, str]] = []
        #: queue -> depth at alert time; an episode stays a live signal
        #: until the gauge drains below PINNED_CLEAR_RATIO of it.
        self._pinned: dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Applied actions, oldest first — the decision trace sim
        #: determinism tests compare.
        self.decisions: list[str] = []

    # -- binding -----------------------------------------------------------

    def bind(self, executor: Reconfigurable) -> "Controller":
        """Attach the running pipeline's reconfiguration surface."""
        self.executor = executor
        return self

    # -- one control cycle -------------------------------------------------

    def poll(self) -> list[Event]:
        """Run one control cycle; returns the events it emitted."""
        self._polls.inc()
        now = self.telemetry.clock.now()
        events = self._drain()
        signals = self._gather(events)
        self._refresh_pinned(signals)
        if any(signals.values()):
            self._quiet_polls = 0
        else:
            self._quiet_polls += 1
        if self.executor is None:
            return []
        if (
            self._last_applied is not None
            and now - self._last_applied < self.config.cooldown
        ):
            return []
        action = self._decide(signals)
        if action is None:
            return []
        return self._propose(action, now)

    def _drain(self) -> list[Event]:
        bus = self.telemetry.events
        if bus is None:
            return []
        events, self._cursor = bus.since(self._cursor)
        return events

    def _gather(
        self, events: list[Event]
    ) -> dict[str, list[tuple[str, str]]]:
        """Bucket the new events into the three diagnosis signals."""
        signals: dict[str, list[tuple[str, str]]] = {
            "stall": [],
            "backpressure": [],
            "shift": [],
        }
        for e in events:
            if e.kind == "stage_stall":
                worker = str(e.fields.get("worker", ""))
                stage = str(e.fields.get("stage", "") or "")
                signals["stall"].append((worker, stage))
            elif e.kind == "backpressure":
                queue = str(e.fields.get("queue", ""))
                signals["backpressure"].append((queue, ""))
                depth = float(e.fields.get("depth", 0.0) or 0.0)
                self._pinned[queue] = max(
                    depth, self._pinned.get(queue, 0.0)
                )
            elif e.kind == "bottleneck_shift":
                stage = str(e.fields.get("bottleneck", ""))
                signals["shift"].append((stage, ""))
        return signals

    def _refresh_pinned(
        self, signals: dict[str, list[tuple[str, str]]]
    ) -> None:
        """Keep latched backpressure episodes alive as signals.

        The watchdog emits one ``backpressure`` event per episode and
        then holds the alert (its own hysteresis), so between the alert
        and the queue actually draining the bus goes quiet.  Reading the
        queue gauge directly bridges that gap: a pinned queue stays a
        backpressure signal until its depth falls below
        ``PINNED_CLEAR_RATIO`` of the depth at alert time.
        """
        fresh = {queue for queue, _ in signals["backpressure"]}
        for queue, depth in sorted(self._pinned.items()):
            current = self.telemetry.queue_gauge(queue).value
            if current <= max(1.0, PINNED_CLEAR_RATIO * depth):
                del self._pinned[queue]
            elif queue not in fresh:
                signals["backpressure"].append((queue, ""))

    @staticmethod
    def _stream_of(worker: str) -> str:
        """Stream id from a worker/thread name.

        Sim workers are named ``<stream>.<stage>.<i>``; live threads
        (``compress-0``) have no stream part — single-stream runtimes
        use ``""``.
        """
        return worker.split(".")[0] if "." in worker else ""

    def _decide(
        self, signals: dict[str, list[tuple[str, str]]]
    ) -> Action | None:
        ex = self.executor
        assert ex is not None
        cfg = self.config
        # 1. A stalled worker: respawn its stage behind the queues.
        for worker, stage in sorted(signals["stall"]):
            if not stage:
                continue
            return Action(
                kind="respawn",
                stream=self._stream_of(worker),
                stage=stage,
                delta=PlanDelta(
                    reason=f"stage_stall: worker {worker!r} silent",
                    notes=(f"respawn {stage} workers",),
                ),
            )
        # 2. Backpressure: grow the consumer, when it can grow.
        for queue, _ in sorted(signals["backpressure"]):
            target = ex.queue_consumer(queue)
            if target is None:
                continue
            stream, stage = target
            action = self._grow(
                stream, stage, f"backpressure: queue {queue!r} pinned"
            )
            if action is not None:
                return action
        # 3. The bottleneck moved: give the new bottleneck a worker.
        for stage, _ in sorted(signals["shift"]):
            if stage not in SCALABLE_STAGES:
                continue
            action = self._grow(
                "", stage, f"bottleneck_shift: busiest stage now {stage}"
            )
            if action is not None:
                return action
        # 4. A quiet streak: hand back the most recent grow.
        if (
            cfg.scale_down_after > 0
            and self._quiet_polls >= cfg.scale_down_after
            and self._grown
        ):
            stream, stage = self._grown[-1]
            current = ex.stage_count(stream, stage)
            floor = max(
                cfg.min_workers, self._baseline.get((stream, stage), 1)
            )
            if current is not None and current > floor:
                sid = self._plan_stream(stream)
                return Action(
                    kind="scale",
                    stream=stream,
                    stage=stage,
                    value=current - 1,
                    delta=PlanDelta(
                        ops=(ScaleStage(sid, stage, current - 1),),
                        reason=(
                            f"quiet for {self._quiet_polls} polls: "
                            f"return {stage} toward baseline"
                        ),
                    ),
                )
            self._grown.pop()
        return None

    def _grow(self, stream: str, stage: str, reason: str) -> Action | None:
        ex = self.executor
        assert ex is not None
        if stage not in SCALABLE_STAGES or not ex.can_scale(stream, stage):
            return None
        current = ex.stage_count(stream, stage)
        if current is None or current >= self.config.max_workers:
            return None
        return Action(
            kind="scale",
            stream=stream,
            stage=stage,
            value=current + 1,
            grow=True,
            delta=PlanDelta(
                ops=(ScaleStage(self._plan_stream(stream), stage, current + 1),),
                reason=reason,
            ),
        )

    def _plan_stream(self, stream: str) -> str:
        """Map a runtime stream id onto the plan's (live runs say "")."""
        if stream:
            return stream
        if self.plan is not None and self.plan.streams:
            return self.plan.streams[0].stream_id
        return stream

    # -- proposal -> validate -> apply ------------------------------------

    def _propose(self, action: Action, now: float) -> list[Event]:
        emitted: list[Event] = []
        self._proposals.labels(action=action.kind).inc()
        doc = delta_to_dict(action.delta)
        emitted += self._emit(
            "replan_proposed",
            f"propose {action.describe()} [{action.delta.reason}]",
            action=action.kind,
            stage=action.stage,
            stream=action.stream,
            delta=doc,
        )
        # Validate against the tracked plan before touching the runtime.
        new_plan = None
        if self.plan is not None and action.delta.ops:
            result = apply_delta(self.plan, action.delta, strict=False)
            if not result.ok:
                problems = [
                    d.message for d in result.diagnostics.errors
                ]
                self._rejected.labels(action=action.kind).inc()
                emitted += self._emit(
                    "replan_rejected",
                    f"delta failed plan validation: {'; '.join(problems)}",
                    severity="warning",
                    action=action.kind,
                    stage=action.stage,
                    delta=doc,
                )
                return emitted
            new_plan = result.plan
        if not self._apply(action):
            self._rejected.labels(action=action.kind).inc()
            emitted += self._emit(
                "replan_rejected",
                f"runtime refused {action.describe()}",
                severity="warning",
                action=action.kind,
                stage=action.stage,
                delta=doc,
            )
            return emitted
        if new_plan is not None:
            self.plan = new_plan
        if action.kind == "scale":
            key = (action.stream, action.stage)
            if action.grow:
                self._baseline.setdefault(key, action.value - 1)
                if key in self._grown:
                    self._grown.remove(key)
                self._grown.append(key)
            else:
                floor = max(
                    self.config.min_workers, self._baseline.get(key, 1)
                )
                if action.value <= floor and key in self._grown:
                    self._grown.remove(key)
        self._last_applied = now
        self._applied.labels(action=action.kind).inc()
        self.decisions.append(action.describe())
        emitted += self._emit(
            "replan_applied",
            f"applied {action.describe()} [{action.delta.reason}]",
            action=action.kind,
            stage=action.stage,
            stream=action.stream,
            delta=doc,
        )
        return emitted

    def _apply(self, action: Action) -> bool:
        ex = self.executor
        assert ex is not None
        if action.kind == "respawn":
            return ex.respawn_stage(action.stream, action.stage)
        return ex.scale_stage(action.stream, action.stage, action.value)

    def _emit(
        self, kind: str, message: str, *, severity: str = "info",
        **fields: Any,
    ) -> list[Event]:
        event = self.telemetry.emit_event(
            kind, message, severity=severity, **fields
        )
        return [event] if event is not None else []

    # -- live driver (daemon thread) --------------------------------------

    def start(self) -> "Controller":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="autotune-controller", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "Controller":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.config.interval):
            self.poll()

    # -- sim driver (virtual-clock process) -------------------------------

    def sim_process(
        self, engine: "Engine", *, until: float
    ) -> Generator["SimEvent", Any, None]:
        """A generator to register with ``engine.process(...)``.

        Polls every ``config.interval`` virtual seconds and returns at
        ``until`` — bounded for the same reason the watchdog's sim
        process is (an immortal process would defeat the engine's
        deadlock and horizon detection).
        """
        while engine.now + self.config.interval <= until:
            yield engine.timeout(self.config.interval)
            self.poll()
