"""The domain supervisor: spawn, watch, restart, drain.

:class:`DomainSupervisor` owns every shared-memory segment of one
process-mode run (rings + stats block) and the worker processes
attached to them.  Three parent-side threads do the watching:

- the **monitor** reaps dead workers.  A worker that exits non-zero is
  restarted under the existing :class:`~repro.faults.policy.RetryPolicy`
  (capped backoff, bounded attempts), and every record the parent had
  dispatched to that domain but not yet collected is *replayed* into
  the domain's raw ring — the ring-level analogue of the resilient
  sender's unacked-tail replay.  The collector deduplicates on
  ``(stream, index)``, which turns at-least-once replay into
  exactly-once delivery;
- the **poller** folds each worker's shared stats slot into the
  ordinary telemetry registry — heartbeats under the worker's stable
  name and the applied CPU set under ``repro_affinity_cpus`` — so
  ``/metrics``, ``/report``, the watchdog and repro top see process
  workers exactly like thread workers;
- callers' own feeder/collector threads, which go through
  :meth:`dispatch` / :meth:`ack` so the supervisor can track the
  outstanding set.  Dispatch and replay share a per-domain lock: the
  ring stays single-producer even when the monitor replays mid-stream.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.faults.policy import RetryPolicy
from repro.mp.ring import SharedRing
from repro.mp.stats import StatsBlock, WorkerState
from repro.mp.topology import ProcessTopology, WorkerSpec
from repro.mp.workers import compress_worker
from repro.util.errors import QueueTimeout, ValidationError

#: How often the monitor checks worker liveness, seconds.
_MONITOR_TICK = 0.05
#: How often the poller publishes stats-block telemetry, seconds.
_POLL_TICK = 0.1


class DomainSupervisor:
    """Owns the processes and shared memory of one process-mode run."""

    def __init__(
        self,
        topology: ProcessTopology,
        *,
        codec_spec: str,
        retry: RetryPolicy | None = None,
        start_method: str = "spawn",
        telemetry: object | None = None,
        batch_frames: int = 1,
    ) -> None:
        self.topology = topology
        #: Codec spec *string* — the spawn-safe form every worker
        #: re-resolves (see repro.compress.codec.CodecSpec).
        self.codec_spec = codec_spec
        self.retry = retry or RetryPolicy()
        self.start_method = start_method
        self.telemetry = telemetry
        self.batch_frames = batch_frames

        self.rings: dict[str, SharedRing] = {}
        self.stats: StatsBlock | None = None
        self._procs: dict[int, object] = {}
        self._specs: dict[int, WorkerSpec] = {
            w.domain: w for w in topology.workers
        }
        #: Dispatched-but-uncollected records per domain, in order.
        self._outstanding: dict[int, "OrderedDict[tuple[str, int], bytes]"] = {
            w.domain: OrderedDict() for w in topology.workers
        }
        self._out_lock = threading.Lock()
        #: Serializes feeder dispatch vs monitor replay per raw ring.
        self._produce_locks: dict[int, threading.Lock] = {
            w.domain: threading.Lock() for w in topology.workers
        }
        self._attempts: dict[int, int] = {w.domain: 0 for w in topology.workers}
        self._given_up: set[int] = set()
        self._terminating = False
        self.restarts = 0
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Materialize segments, spawn every worker, start watchers."""
        self.stats = StatsBlock.create(workers=len(self.topology.workers))
        for spec in self.topology.rings:
            self.rings[spec.ring_id] = SharedRing.create(
                capacity=spec.capacity, slot_bytes=spec.slot_bytes
            )
        for w in self.topology.workers:
            self._spawn(w)
        for name, target in (("mp-monitor", self._monitor),
                             ("mp-poller", self._poll)):
            t = threading.Thread(target=target, name=name, daemon=True)
            self._threads.append(t)
            t.start()
        self._started = True

    def _spawn(self, spec: WorkerSpec) -> None:
        import multiprocessing

        assert self.stats is not None
        ctx = multiprocessing.get_context(self.start_method)
        proc = ctx.Process(
            target=compress_worker,
            name=spec.name,
            kwargs=dict(
                domain=spec.domain,
                cpus=spec.cpus,
                codec_spec=self.codec_spec,
                in_ring=self.rings[spec.in_ring].name,
                out_ring=self.rings[spec.out_ring].name,
                stats_name=self.stats.name,
                stats_slot=spec.stats_slot,
                batch_frames=self.batch_frames,
                crash_after=spec.crash_after,
                timed=self.telemetry is not None,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[spec.domain] = proc

    # -- parent-side data plane ------------------------------------------

    def raw_ring(self, domain: int) -> SharedRing:
        return self.rings[self._specs[domain].in_ring]

    def comp_ring(self, domain: int) -> SharedRing:
        return self.rings[self._specs[domain].out_ring]

    def dispatch(
        self,
        domain: int,
        key: tuple[str, int],
        packed: bytes,
        timeout: float | None = None,
    ) -> None:
        """Hand one packed record to ``domain``, tracking it for replay."""
        with self._out_lock:
            self._outstanding[domain][key] = packed
        ring = self.raw_ring(domain)
        with self._produce_locks[domain]:
            ring.put(packed, timeout=timeout)

    def ack(self, domain: int, key: tuple[str, int]) -> None:
        """The collector received ``key``; it no longer needs replay."""
        with self._out_lock:
            self._outstanding[domain].pop(key, None)

    def close_inputs(self) -> None:
        """End of stream: seal every raw ring (workers drain then exit)."""
        for w in self.topology.workers:
            self.raw_ring(w.domain).close()

    # -- watching --------------------------------------------------------

    def _emit(self, kind: str, message: str, **fields: object) -> None:
        tel = self.telemetry
        if tel is not None:
            tel.emit_event(  # type: ignore[attr-defined]
                kind, message, severity="warning", **fields
            )

    def _monitor(self) -> None:
        try:
            while not self._stop.is_set():
                for domain, proc in list(self._procs.items()):
                    if domain in self._given_up or self._terminating:
                        continue
                    if proc.is_alive() or proc.exitcode is None:  # type: ignore[attr-defined]
                        continue
                    if proc.exitcode == 0:  # type: ignore[attr-defined]
                        continue  # clean exit; join() accounts for it
                    self._handle_crash(domain, proc.exitcode)  # type: ignore[attr-defined]
                self._stop.wait(_MONITOR_TICK)
        except Exception as exc:  # noqa: BLE001 - thread boundary
            # A dead monitor must not become a hung run: record the
            # failure and unwind everyone blocked on the rings.
            self.errors.append(f"supervisor monitor failed: {exc!r}")
            self.abort()

    def _handle_crash(self, domain: int, exitcode: int) -> None:
        spec = self._specs[domain]
        self._attempts[domain] += 1
        attempt = self._attempts[domain]
        if attempt > self.retry.max_attempts:
            self._given_up.add(domain)
            self.errors.append(
                f"{spec.name} crashed (exit {exitcode}) and exhausted "
                f"{self.retry.max_attempts} restart attempts"
            )
            self._emit(
                "worker_exit",
                f"{spec.name} gave up after {attempt - 1} restarts",
                worker=spec.name,
                exitcode=exitcode,
            )
            # Unblock everyone: the run is lost.
            self.abort()
            return
        if attempt >= 1:
            # attempt 0 is a controller-initiated respawn (the counter
            # was pre-credited): restart immediately, no backoff.
            time.sleep(self.retry.backoff(attempt - 1))
        if self._stop.is_set():
            return
        assert self.stats is not None
        self.stats.bump_restarts(spec.stats_slot)
        self.restarts += 1
        self._emit(
            "worker_restart",
            f"{spec.name} crashed (exit {exitcode}); restarting "
            f"(attempt {attempt}/{self.retry.max_attempts})",
            worker=spec.name,
            exitcode=exitcode,
            attempt=attempt,
        )
        # Restart without the injected fault, then replay the records
        # the dead worker may have consumed but never produced.  The
        # collector dedups, so double-processing is harmless.
        clean = WorkerSpec(
            domain=spec.domain,
            role=spec.role,
            cpus=spec.cpus,
            in_ring=spec.in_ring,
            out_ring=spec.out_ring,
            stats_slot=spec.stats_slot,
            crash_after=None,
        )
        self._specs[domain] = clean
        self._spawn(clean)
        with self._out_lock:
            replay = list(self._outstanding[domain].values())
        ring = self.raw_ring(domain)
        proc = self._procs[domain]
        with self._produce_locks[domain]:
            sent = 0
            while sent < len(replay) and not ring.closed:
                try:
                    sent += ring.put_many(replay[sent:], timeout=1.0)
                except ValidationError:
                    break  # ring force-closed under us: run is aborting
                except QueueTimeout:
                    # Ring still full.  If the replacement died too, stop
                    # here — the next monitor tick re-handles the crash
                    # and replays the (unchanged) outstanding set again.
                    if not proc.is_alive():  # type: ignore[attr-defined]
                        break

    def respawn(self, domain: int) -> bool:
        """Controller-initiated drain-and-respawn of one domain worker.

        Kills the process (SIGKILL — ``terminate()`` means "drain and
        exit cleanly", which the monitor would *not* restart) and lets
        the ordinary crash path bring up a clean replacement and replay
        the outstanding records; the collector's dedup keeps delivery
        exactly-once, the same guarantee a real crash gets.  The
        attempt counter is pre-decremented so a deliberate respawn
        never consumes the crash-retry budget.  Returns False when the
        domain is gone, already given up, or the run is shutting down.
        """
        if not self._started or self._terminating:
            return False
        if domain not in self._procs or domain in self._given_up:
            return False
        proc = self._procs[domain]
        if not proc.is_alive():  # type: ignore[attr-defined]
            return False
        with self._out_lock:
            # The budget credit: _handle_crash's increment nets to zero.
            self._attempts[domain] -= 1
        proc.kill()  # type: ignore[attr-defined]
        return True

    def _poll(self) -> None:
        while True:
            self._publish_stats()
            if self._stop.wait(_POLL_TICK):
                self._publish_stats()  # one final snapshot after stop
                return

    def _publish_stats(self) -> None:
        tel = self.telemetry
        if tel is None or self.stats is None:
            return
        for w in self.topology.workers:
            s = self.stats.read(self._specs[w.domain].stats_slot)
            if s.heartbeat > 0:
                tel.heartbeat(w.name, ts=s.heartbeat)  # type: ignore[attr-defined]
            tel.record_affinity(w.name, s.cpus)  # type: ignore[attr-defined]

    # -- shutdown --------------------------------------------------------

    def terminate(self) -> None:
        """Ask every live worker to drain and exit.

        ``Process.terminate()`` delivers SIGTERM on POSIX, which the
        worker catches as its graceful-drain signal — published work is
        flushed downstream before it exits.  From here on the monitor
        stands down: a worker dying to the signal (e.g. before its
        handler was installed) is part of shutdown, not a crash to
        restart.
        """
        self._terminating = True
        for proc in self._procs.values():
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.terminate()  # type: ignore[attr-defined]

    def join(self, timeout: float) -> list[str]:
        """Wait for workers to finish; returns accumulated errors."""
        deadline = time.monotonic() + timeout
        for domain, proc in list(self._procs.items()):
            remaining = max(0.0, deadline - time.monotonic())
            proc.join(remaining)  # type: ignore[attr-defined]
            # The monitor restarts crashed workers; re-check the map in
            # case this domain's process was replaced while we waited.
            current = self._procs[domain]
            if current is not proc:
                current.join(max(0.0, deadline - time.monotonic()))  # type: ignore[attr-defined]
                proc = current
            # The monitor thread polls the same Process object; when its
            # waitpid reaps the child first, this thread's join returns
            # early with the exit code not stored yet.  Settle before
            # calling a finished worker a straggler.
            while proc.is_alive() and time.monotonic() < deadline:  # type: ignore[attr-defined]
                time.sleep(0.005)
            if proc.is_alive():  # type: ignore[attr-defined]
                self.errors.append(
                    f"{self._specs[domain].name} did not finish "
                    f"within {timeout}s"
                )
        if self._terminating:
            # A worker the signal killed before its handler was up never
            # closed its output ring; seal it so collectors unwind
            # instead of waiting on a process that will not return.
            for domain, proc in self._procs.items():
                if not proc.is_alive():  # type: ignore[attr-defined]
                    self.comp_ring(domain).close()
        return list(self.errors)

    def abort(self) -> None:
        """Force-close every ring so blocked endpoints unwind."""
        for ring in self.rings.values():
            ring.close()

    def shutdown(self) -> None:
        """Stop watchers, reap workers, release every segment."""
        self._stop.set()
        for t in self._threads:
            t.join(timeout=5.0)
        for proc in self._procs.values():
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.terminate()  # type: ignore[attr-defined]
                proc.join(timeout=5.0)  # type: ignore[attr-defined]
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.kill()  # type: ignore[attr-defined]
                proc.join(timeout=5.0)  # type: ignore[attr-defined]
        for ring in self.rings.values():
            ring.unlink()
        self.rings.clear()
        if self.stats is not None:
            self.stats.unlink()
            self.stats = None
