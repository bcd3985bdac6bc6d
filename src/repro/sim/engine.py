"""Event loop and process model for the discrete-event simulator.

The kernel is intentionally minimal: an event heap ordered by
``(time, priority, sequence)`` and generator-based processes that yield
*waitables* (:class:`Event` subclasses).  It exists so the runtime model
can express pipeline threads naturally::

    def compressor(engine, inq, outq, ...):
        while True:
            chunk = yield inq.get()
            yield network.run(make_flow(chunk))
            yield outq.put(compressed(chunk))

Design notes
------------
- Events are one-shot.  Triggering an already-triggered event raises
  :class:`~repro.util.errors.SimulationError` — double triggers are
  always bugs in this codebase.
- Processes are themselves events (they trigger when the generator
  returns), so ``yield engine.process(...)`` composes.
- No real time, no threads: the simulated clock jumps from event to
  event, which is what makes modelling 32 "threads" on one Python core
  possible at all (see DESIGN.md §2 on the GIL substitution).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator
from typing import Any

from repro.util.errors import SimulationError

#: Priority for events that must run before ordinary ones at the same time
#: (process starts, interrupts and flow completions).
URGENT = 0
#: Priority for ordinary events.
NORMAL = 1
#: Priority for events that must run after every ordinary event at the
#: same time: the flow network's settle, which solves rates once for the
#: instant's final flow population.
SETTLE = 2


class Event:
    """A one-shot occurrence processes can wait on.

    Life cycle: *pending* → ``trigger(value)`` → scheduled on the heap →
    *processed* (callbacks run).  ``value`` is delivered to every waiting
    process as the result of its ``yield``.
    """

    __slots__ = ("engine", "callbacks", "_value", "_triggered", "_processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def trigger(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire now; idempotence is an error."""
        if self._triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._triggered = True
        self._value = value
        self.engine._schedule(0.0, self, priority)
        return self

    # Alias matching common DES naming.
    succeed = trigger

    def _process(self) -> None:
        if self._processed:
            raise SimulationError(f"{self!r} processed twice")
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.engine.now:.6g}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._triggered = True
        self._value = value
        engine._schedule(delay, self, NORMAL)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; completes (as an event) when it returns.

    The generator yields :class:`Event` instances and is resumed with the
    event's value.  Exceptions raised inside the generator propagate out
    of :meth:`Engine.run` — simulations are deterministic programs, and a
    crash in a model is a bug to surface, not swallow.
    """

    __slots__ = ("gen", "name", "_target", "_alive")

    def __init__(
        self,
        engine: "Engine",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(engine)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Event | None = None
        self._alive = True
        # Bootstrap: resume once the engine starts (or immediately if running).
        init = Event(engine)
        init.callbacks.append(self._resume)
        init.trigger(None, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if not self._alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._target
        if target is not None and not target.processed:
            # Detach from the event we were waiting on (it may already be
            # *triggered* — e.g. a Timeout, which is triggered from birth
            # — but as long as it has not been processed our callback is
            # still registered and must go).
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        kick = Event(self.engine)
        kick.callbacks.append(lambda ev: self._resume(ev, throw=Interrupt(cause)))
        kick.trigger(None, priority=URGENT)

    def _resume(self, event: Event, *, throw: BaseException | None = None) -> None:
        self._target = None
        try:
            if throw is not None:
                nxt = self.gen.throw(throw)
            else:
                nxt = self.gen.send(event.value)
        except StopIteration as stop:
            self._alive = False
            self.trigger(stop.value)
            return
        if not isinstance(nxt, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {nxt!r}; processes must yield Events"
            )
        if nxt.processed:
            raise SimulationError(
                f"process {self.name!r} waited on already-processed event {nxt!r}"
            )
        self._target = nxt
        nxt.callbacks.append(self._resume)


class Engine:
    """The simulation clock and event heap."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ------------------------------------------------------

    def _schedule(self, delay: float, event: Event, priority: int) -> None:
        heapq.heappush(
            self._heap, (self._now + delay, priority, next(self._seq), event)
        )

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, gen: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Register a generator as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: list[Event]) -> Event:
        """Event that fires when every event in ``events`` has fired.

        The composite value is the list of individual values, in order.
        """
        done = self.event()
        if not events:
            done.trigger([])
            return done
        remaining = {"n": len(events)}
        values: list[Any] = [None] * len(events)

        def make_cb(i: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                values[i] = ev.value
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    done.trigger(values)

            return cb

        for i, ev in enumerate(events):
            if ev.processed:
                raise SimulationError("all_of() got an already-processed event")
            ev.callbacks.append(make_cb(i))
        return done

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Process the single next event; error when the heap is empty."""
        if not self._heap:
            raise SimulationError("step() on empty event heap")
        t, _prio, _seq, event = heapq.heappop(self._heap)
        if t < self._now - 1e-12:
            raise SimulationError(
                f"event scheduled in the past: {t} < {self._now}"
            )
        self._now = max(self._now, t)
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until ``until`` (a time or an event) or event exhaustion.

        Returns the event's value when ``until`` is an event.
        """
        if isinstance(until, Event):
            stop = until
            while not stop.processed:
                if not self._heap:
                    raise SimulationError(
                        "event heap exhausted before target event fired "
                        "(deadlock: a process is waiting on something that "
                        "will never trigger)"
                    )
                self.step()
            return stop.value
        horizon = float("inf") if until is None else float(until)
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        if until is not None:
            self._now = max(self._now, horizon)
        return None

    def peek(self) -> float:
        """Time of the next event, or +inf when the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")
