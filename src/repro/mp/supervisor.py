"""The domain supervisor: arm, watch, restart, drain.

:class:`DomainSupervisor` owns every shared-memory segment of one
process-mode run — a raw ring and a compressed ring per domain — and
borrows one worker process per domain from :mod:`repro.mp.pool` for the
run: an idle pooled process is re-armed, and one is started only when
none is idle.  Before a worker's run starts, the parent places it on its
domain's CPU set (or back on the set it was started with) and records
the applied size under ``repro_affinity_cpus``.  A worker's *run* ends
when it replies ``done``; :meth:`shutdown` hands a cleanly finished
worker back to the pool and kills any other.

One parent-side thread, the **monitor**, watches for workers that die
mid-run.  One that does is restarted under the existing
:class:`~repro.faults.policy.RetryPolicy` (capped backoff, bounded
attempts), and every record the parent had dispatched to that domain
but not yet collected is *replayed* into the domain's raw ring — the
ring-level analogue of the resilient sender's unacked-tail replay.  The
collector deduplicates on ``(stream, index)``, which turns at-least-once
replay into exactly-once delivery.  Callers' own feeder/collector
threads go through :meth:`dispatch` / :meth:`ack` so the supervisor can
track the outstanding set; dispatch and replay share a per-domain lock,
so the ring stays single-producer even when the monitor replays
mid-stream.  A worker's heartbeat and compress accounting reach
telemetry through the collector, from the stamp on each record
(:mod:`repro.mp.pipeline`).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.faults.policy import RetryPolicy
from repro.mp import pool
from repro.mp.ring import SharedRing
from repro.util.errors import ConfigurationError, QueueTimeout, ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.live.runtime import LiveConfig

#: How often the monitor checks worker liveness, seconds.
_MONITOR_TICK = 0.05


def domain_cpu_sets(
    cpus: list[int] | None, domains: int
) -> list[tuple[int, ...]]:
    """Partition a stage CPU list into per-domain sets.

    Contiguous split (not round-robin): the plan's affinity lists are
    sorted by global core index, so a contiguous slice keeps each
    domain's CPUs on the same socket whenever the plan placed them
    that way.  With fewer CPUs than domains, trailing domains run
    unpinned; with none, every domain does.
    """
    if domains < 1:
        raise ConfigurationError("domains must be >= 1")
    if not cpus:
        return [() for _ in range(domains)]
    out: list[tuple[int, ...]] = []
    base, extra = divmod(len(cpus), domains)
    at = 0
    for d in range(domains):
        take = base + (1 if d < extra else 0)
        out.append(tuple(cpus[at : at + take]))
        at += take
    return out


class DomainSupervisor:
    """Owns the processes and shared memory of one process-mode run.

    The layout comes from a lowered :class:`LiveConfig`:
    ``process_domains`` of 0 means one domain per planned compressor,
    and each domain's CPU set is its slice of the same ``affinity`` map
    the thread pipeline pins with, so both modes realize the *same*
    plan placement.
    """

    def __init__(
        self,
        config: "LiveConfig",
        *,
        codec_spec: str,
        retry: RetryPolicy | None = None,
        telemetry: object | None = None,
    ) -> None:
        self.config = config
        self.domains = config.process_domains or config.compress_threads
        self.cpus = domain_cpu_sets(config.affinity.get("compress"), self.domains)
        #: Codec spec *string* — the spawn-safe form every worker
        #: re-resolves (see repro.compress.codec.CodecSpec).
        self.codec_spec = codec_spec
        self.retry = retry or RetryPolicy()
        self.telemetry = telemetry

        #: Per domain: the raw ring the feeder fills, the compressed
        #: ring its collector drains.
        self.raw: list[SharedRing] = []
        self.comp: list[SharedRing] = []
        #: Each domain's current run handle.
        self.workers: dict[int, pool.PooledWorker] = {}
        #: Test hook: a domain's worker calls ``os._exit(1)`` after this
        #: many chunks; a restart strips it.
        self.crash_after: dict[int, int] = {}
        domains = range(self.domains)
        #: Dispatched-but-uncollected records per domain, in order.
        self._outstanding: dict[int, "OrderedDict[tuple[str, int], bytes]"] = {
            d: OrderedDict() for d in domains
        }
        self._out_lock = threading.Lock()
        #: Serializes feeder dispatch vs monitor replay per raw ring.
        self._produce_locks = {d: threading.Lock() for d in domains}
        self._attempts = {d: 0 for d in domains}
        self._given_up: set[int] = set()
        self._terminating = False
        self._aborted = False
        self.restarts = 0
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Create every ring, arm every worker, start the monitor."""
        cfg = self.config
        for _ in range(self.domains):
            for rings in (self.raw, self.comp):
                rings.append(SharedRing.create(
                    capacity=cfg.ring_capacity, slot_bytes=cfg.ring_slot_bytes
                ))
        for domain in range(self.domains):
            self._spawn(domain)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="mp-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._started = True

    def _spawn(self, domain: int) -> None:
        worker = self.workers[domain] = pool.arm(
            self.config.mp_start_method,
            self.cpus[domain],
            codec_spec=self.codec_spec,
            in_ring=self.raw[domain].name,
            out_ring=self.comp[domain].name,
            batch_frames=self.config.batch_frames,
            crash_after=self.crash_after.get(domain),
        )
        tel = self.telemetry
        if tel is not None:
            tel.record_affinity(  # type: ignore[attr-defined]
                f"mp-compress-{domain}", worker.ncpus
            )

    # -- parent-side data plane ------------------------------------------

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
        with self._produce_locks[domain]:
            self.raw[domain].put(packed, timeout=timeout)

    def ack(self, domain: int, key: tuple[str, int]) -> None:
        """The collector received ``key``; it no longer needs replay."""
        with self._out_lock:
            self._outstanding[domain].pop(key, None)

    def close_inputs(self) -> None:
        """End of stream: seal every raw ring (workers drain then exit)."""
        for ring in self.raw:
            ring.close()

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
                for domain, worker in list(self.workers.items()):
                    if domain in self._given_up or self._terminating:
                        continue
                    code = worker.exitcode
                    if code is None or code == 0:
                        continue  # running, or replied done (join() books it)
                    self._handle_crash(domain, code)
                self._stop.wait(_MONITOR_TICK)
        except Exception as exc:  # noqa: BLE001 - thread boundary
            # A dead monitor must not become a hung run: record the
            # failure and unwind everyone blocked on the rings.
            self.errors.append(f"supervisor monitor failed: {exc!r}")
            self.abort()

    def _handle_crash(self, domain: int, exitcode: int) -> None:
        name = f"mp-compress-{domain}"
        self._attempts[domain] += 1
        attempt = self._attempts[domain]
        if attempt > self.retry.max_attempts:
            self._given_up.add(domain)
            self.errors.append(
                f"{name} crashed (exit {exitcode}) and exhausted "
                f"{self.retry.max_attempts} restart attempts"
            )
            self._emit(
                "worker_exit",
                f"{name} gave up after {attempt - 1} restarts",
                worker=name,
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
        self.restarts += 1
        self._emit(
            "worker_restart",
            f"{name} crashed (exit {exitcode}); restarting "
            f"(attempt {attempt}/{self.retry.max_attempts})",
            worker=name,
            exitcode=exitcode,
            attempt=attempt,
        )
        # Restart without the injected fault, then replay the records
        # the dead worker may have consumed but never produced.  The
        # collector dedups, so double-processing is harmless.
        self.crash_after.pop(domain, None)
        pool.release(self.workers[domain], reuse=False)
        self._spawn(domain)
        with self._out_lock:
            replay = list(self._outstanding[domain].values())
        ring = self.raw[domain]
        worker = self.workers[domain]
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
                    if not worker.is_alive():
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
        if domain not in self.workers or domain in self._given_up:
            return False
        worker = self.workers[domain]
        if not worker.is_alive():
            return False
        with self._out_lock:
            # The budget credit: _handle_crash's increment nets to zero.
            self._attempts[domain] -= 1
        worker.kill()
        return True

    # -- shutdown --------------------------------------------------------

    def terminate(self) -> None:
        """Ask every running worker to drain and end its run.

        ``terminate()`` delivers SIGTERM on POSIX, which the worker
        catches as its graceful-drain signal — published work is
        flushed downstream before it replies done.  From here on the
        monitor stands down: a worker dying to the signal (e.g. before
        its handler was installed) is part of shutdown, not a crash to
        restart.
        """
        self._terminating = True
        for worker in self.workers.values():
            if worker.is_alive():
                worker.terminate()

    def join(self, timeout: float) -> list[str]:
        """Wait for every worker's run to end (its ``done`` reply, or its
        death); returns accumulated errors."""
        deadline = time.monotonic() + timeout
        for domain, worker in list(self.workers.items()):
            remaining = max(0.0, deadline - time.monotonic())
            worker.join(remaining)
            # The monitor restarts crashed workers; re-check the map in
            # case this domain's worker was replaced while we waited.
            current = self.workers[domain]
            if current is not worker:
                current.join(max(0.0, deadline - time.monotonic()))
                worker = current
            # A dying worker's pipe reads EOF a moment before its exit
            # code can be reaped, so join() may return with the run's
            # end not recorded yet.  Settle before calling a finished
            # worker a straggler.
            while worker.is_alive() and time.monotonic() < deadline:
                time.sleep(0.005)
            if worker.is_alive():
                self.errors.append(
                    f"mp-compress-{domain} did not finish within {timeout}s"
                )
        if self._terminating:
            # A worker the signal killed before its handler was up never
            # closed its output ring; seal it so collectors unwind
            # instead of waiting on a process that will not return.
            for domain, worker in self.workers.items():
                if not worker.is_alive():
                    self.comp[domain].close()
        return list(self.errors)

    def abort(self) -> None:
        """Force-close every ring so blocked endpoints unwind."""
        self._aborted = True
        for ring in (*self.raw, *self.comp):
            ring.close()

    def shutdown(self) -> None:
        """Stop the monitor, hand workers back, release every ring.

        A worker returns to the pool only when its run ended with
        ``done`` and nothing forced it; after :meth:`terminate` or
        :meth:`abort` every worker is killed, as is one that crashed or
        is still running.
        """
        self._stop.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
        forced = self._terminating or self._aborted
        for worker in self.workers.values():
            pool.release(worker, reuse=not forced)
        for ring in (*self.raw, *self.comp):
            ring.unlink()
        self.raw.clear()
        self.comp.clear()
