"""Warm compressor processes: started once per interpreter, re-armed per run.

Starting a worker process costs an interpreter, its imports and — under
``spawn`` — a re-import of the parent's main module: hundreds of
milliseconds, paid inside every run when each run started its own.
This module keeps the processes instead (dgen-rs's "create the pool
ONCE, reuse", SNIPPETS.md §1.1).  Each runs :func:`repro.mp.workers.serve`
and idles on a pipe between runs; :func:`arm` places one on the run's
CPU set — or back on the set it was started with — hands it a run
command and returns it as a :class:`PooledWorker`, which the supervisor
watches like a ``Process`` whose *run* is what starts and ends.  The
run's ``done`` reply carries the CPU seconds it spent.

A worker goes back to the idle list (:func:`release` with
``reuse=True``) only after a clean ``done``; anything else — a crash, a
kill, a run still going — ends the process.  :func:`shutdown_pool`
kills every process the pool started; it runs at interpreter exit,
before multiprocessing's own exit hook.  Rings are not pooled: each run
creates and unlinks its own.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from multiprocessing.connection import wait
from typing import Any

from repro.live.affinity import current_affinity, pin_current_thread
from repro.mp.workers import serve

#: Idle processes per start method, ready to be armed.
_idle: dict[str, list["PooledWorker"]] = {}
#: Every process the pool started and has not stopped.
_live: set["PooledWorker"] = set()
_lock = threading.Lock()


class PooledWorker:
    """One pooled process, seen through its current run.

    ``is_alive()`` / ``exitcode`` / ``join()`` describe the run: alive
    until the worker replies ``done`` (exit code 0) or the process dies
    (its exit code).  ``terminate()`` and ``kill()`` signal the process.
    Every probe takes the worker's lock, so the supervisor's monitor and
    its joining thread never race each other's ``waitpid``.
    """

    def __init__(self, start_method: str) -> None:
        ctx = multiprocessing.get_context(start_method)
        commands, self._commands = ctx.Pipe(duplex=False)
        self._replies, replies = ctx.Pipe(duplex=False)
        self.start_method = start_method
        self.process = ctx.Process(
            target=serve, args=(commands, replies), daemon=True
        )
        self.process.start()
        commands.close()
        replies.close()
        self.pid = self.process.pid
        #: The CPU set the process started with: where an unpinned run goes.
        self.home = current_affinity(self.pid)
        #: The size of the CPU set the current run is pinned to (0 = unpinned).
        self.ncpus = 0
        #: CPU seconds the last run spent, from its ``done`` reply.
        self.cpu_s = 0.0
        self._lock = threading.Lock()
        #: None while a run is in progress; 0 after ``done``.
        self._exitcode: int | None = 0
        self._stopped = False

    def _arm(self, cpus: tuple[int, ...], command: dict[str, Any]) -> None:
        self.ncpus = self._place(cpus)
        self.cpu_s = 0.0
        self._exitcode = None
        self._commands.send(command)

    def _place(self, cpus: tuple[int, ...]) -> int:
        """Pin the process to ``cpus``, or — when they are empty or
        unusable — put it back on the set it started with; returns the
        pinned set's size, 0 when unpinned."""
        if cpus and pin_current_thread(cpus, task=self.pid):
            return len(current_affinity(self.pid) or cpus)
        if self.home:
            pin_current_thread(self.home, task=self.pid)
        return 0

    def _settle(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the run to end; record how it did."""
        if self._exitcode is not None:
            return
        wait([self._replies, self.process.sentinel], timeout)
        with self._lock:
            if self._exitcode is not None:
                return
            if self._replies.poll():
                try:
                    self.cpu_s = self._replies.recv()
                    self._exitcode = 0
                    return
                except EOFError:
                    pass  # the process died; its exit code says how
            if not self.process.is_alive():
                self._exitcode = self.process.exitcode

    def is_alive(self) -> bool:
        self._settle(0)
        return self._exitcode is None

    @property
    def exitcode(self) -> int | None:
        self._settle(0)
        return self._exitcode

    def join(self, timeout: float | None = None) -> None:
        self._settle(1e9 if timeout is None else timeout)

    def terminate(self) -> None:
        self.process.terminate()

    def kill(self) -> None:
        self.process.kill()

    def _reusable(self) -> bool:
        with self._lock:
            return (
                not self._stopped
                and self._exitcode == 0
                and self.process.is_alive()
            )

    def _stop(self) -> None:
        """Kill and reap the process, and release its pipes (idempotent)."""
        with _lock:
            _live.discard(self)
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self.process.kill()
            self.process.join()
            if self._exitcode is None:
                self._exitcode = self.process.exitcode
            self._commands.close()
            self._replies.close()
            self.process.close()


def arm(start_method: str, cpus: tuple[int, ...], **command: Any) -> PooledWorker:
    """A worker placed on ``cpus`` and running ``compress_worker(**command)``:
    an idle one re-armed, or — only when none is idle — a new one."""
    while True:
        with _lock:
            idle = _idle.get(start_method)
            worker = idle.pop() if idle else None
        if worker is None:
            break
        if worker._reusable():
            try:
                worker._arm(cpus, command)
                return worker
            except OSError:
                pass  # it died after the check: the pipe is broken
        worker._stop()
    worker = PooledWorker(start_method)
    with _lock:
        _live.add(worker)
    worker._arm(cpus, command)
    return worker


def release(worker: PooledWorker, *, reuse: bool) -> None:
    """Put ``worker`` back on the idle list when ``reuse`` holds and its
    run ended with ``done``; otherwise stop it."""
    if reuse and worker._reusable():
        with _lock:
            if worker in _live:
                _idle.setdefault(worker.start_method, []).append(worker)
                return
    worker._stop()


def shutdown_pool() -> None:
    """Kill and reap every pooled process, idle or armed.

    Registered with :mod:`atexit` (after multiprocessing's own exit
    hook, so it runs first); callable at any time — the next run simply
    starts new workers.
    """
    with _lock:
        workers = list(_live)
        _idle.clear()
    for worker in workers:
        worker._stop()


atexit.register(shutdown_pool)
