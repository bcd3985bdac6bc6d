"""Stage lifecycle objects: worker sets the controller can cycle.

Historically each pipeline inlined its spawn/join logic — a list of
``threading.Thread`` built in ``run()`` and joined at the end.  That
shape can't be reconfigured: nothing owns "the compress workers" as a
unit, so nothing can scale them or respawn them mid-run.  This module
extracts the lifecycle into one small object, :class:`StageSet`: one
stage's worker threads plus the factory that makes more.
``scale_to(n)`` grows the set (registering the new producers on the
downstream queue *before* they spawn) or shrinks it (signalling
per-worker stop events; the worker's ``finally``-close balances the
producer count after the item in hand).  ``respawn()`` is
drain-and-respawn: spawn a full replacement generation, then stop the
old one — the queue serializes the handoff, so no chunk is lost and
exactly-once accounting holds.

The invariant that makes scaling safe: a downstream
:class:`~repro.live.queues.ClosableQueue` seals when close-count ==
producer-count.  Scale-up calls ``add_producers`` before the new
worker exists; scale-down never touches the count — the stopping
worker's own ``finally: outq.close()`` is the decrement.  Both orders
are race-free against the seal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.live.queues import ClosableQueue
from repro.util.errors import ValidationError


#: factory(index, stop) -> the worker thread(s) for one logical worker.
WorkerFactory = Callable[
    [int, threading.Event], "threading.Thread | Sequence[threading.Thread]"
]


@dataclass
class _Worker:
    """One logical worker: its thread(s) and its private stop event."""

    index: int
    threads: tuple[threading.Thread, ...]
    stop: threading.Event


class StageSet:
    """One stage's worker threads as a reconfigurable unit.

    ``factory(index, stop)`` builds (without starting) the thread or
    threads of logical worker ``index``; indices are monotonic across
    the set's lifetime so thread names like ``compress-3`` never
    collide after a respawn.  ``downstream`` is the queue the workers
    close when they exit (None for sink stages); ``scalable=False``
    turns :meth:`scale_to` into a refusal rather than an error — the
    controller treats that as "pick another lever".
    """

    def __init__(
        self,
        name: str,
        factory: WorkerFactory,
        *,
        count: int,
        downstream: ClosableQueue | None = None,
        scalable: bool = False,
    ) -> None:
        if count < 1:
            raise ValidationError(f"stage {name!r} needs count >= 1")
        self.name = name
        self.factory = factory
        self.downstream = downstream
        self.scalable = scalable
        self._lock = threading.Lock()
        self._workers: list[_Worker] = []
        self._retired: list[_Worker] = []
        self._next_index = 0
        self._started = False
        for _ in range(count):
            self._workers.append(self._make_locked())

    # -- internals (call with self._lock held or before start) -----------

    def _make_locked(self) -> _Worker:
        stop = threading.Event()
        made = self.factory(self._next_index, stop)
        threads = (
            (made,) if isinstance(made, threading.Thread) else tuple(made)
        )
        worker = _Worker(index=self._next_index, threads=threads, stop=stop)
        self._next_index += 1
        return worker

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start every worker thread (idempotent per worker)."""
        with self._lock:
            self._started = True
            for w in self._workers:
                for t in w.threads:
                    t.start()

    @property
    def count(self) -> int:
        """Logical workers currently meant to be running."""
        with self._lock:
            return len(self._workers)

    def threads(self) -> list[threading.Thread]:
        """Every thread ever spawned (live and retired) — join them all."""
        with self._lock:
            out: list[threading.Thread] = []
            for w in self._workers + self._retired:
                out.extend(w.threads)
            return out

    def join(self, timeout: float | None = None) -> list[str]:
        """Join every thread; returns an error string per straggler."""
        errors: list[str] = []
        for t in self.threads():
            t.join(timeout)
            if t.is_alive():
                errors.append(
                    f"thread {t.name} did not finish (deadlock?)"
                )
        return errors

    # -- reconfiguration --------------------------------------------------

    def scale_to(self, n: int) -> bool:
        """Grow or shrink the set to ``n`` logical workers.

        Scale-up registers the new producers on the downstream queue
        *first*, then spawns fresh workers.  Scale-down flags the
        newest workers' stop events and moves them to the retired list
        — their exit (and ``finally``-close) happens once the item in
        hand is done, so in-flight chunks drain normally.  Returns
        False (no change) when the set is not scalable, ``n`` is the
        current count, or the downstream queue already sealed.
        """
        if n < 1 or not self.scalable:
            return False
        with self._lock:
            current = len(self._workers)
            if n == current or not self._started:
                return False
            if n > current:
                grow = n - current
                if self.downstream is not None:
                    try:
                        self.downstream.add_producers(grow)
                    except ValidationError:
                        return False  # stream already ending
                fresh = [self._make_locked() for _ in range(grow)]
                self._workers.extend(fresh)
                for w in fresh:
                    for t in w.threads:
                        t.start()
            else:
                for _ in range(current - n):
                    w = self._workers.pop()
                    w.stop.set()
                    self._retired.append(w)
        return True

    def respawn(self) -> bool:
        """Drain-and-respawn: replace every worker with a fresh one.

        The replacement generation spawns first (producer count goes
        up by the current count), then the old generation is stopped
        (its closes bring the count back down) — net zero, with both
        generations briefly draining the same upstream queue, so no
        chunk is dropped and no close is missed.  Returns False when
        the downstream queue already sealed (the stream is ending —
        nothing to respawn into).
        """
        with self._lock:
            if not self._started or not self._workers:
                return False
            old = list(self._workers)
            if self.downstream is not None:
                try:
                    self.downstream.add_producers(len(old))
                except ValidationError:
                    return False
            fresh = [self._make_locked() for _ in old]
            self._workers = fresh
            for w in fresh:
                for t in w.threads:
                    t.start()
            for w in old:
                w.stop.set()
                self._retired.append(w)
        return True
