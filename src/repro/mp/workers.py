"""The worker-process body: one compressor domain, ring to ring.

:func:`compress_worker` is one run of a compressor process — the
process-mode analogue of :func:`repro.live.workers.compressor`.  It
attaches its rings by name (spawn-safe: everything crosses the
boundary as plain strings and ints), then loops: drain raw frames,
compress, publish each compressed frame with its compress stamp.  The
stamped frame is the worker's one report: the parent's collector books
the compress stage, the span and the worker's heartbeat from it.

:func:`serve` is what the process itself runs (:mod:`repro.mp.pool`
starts it once and re-arms it per run): it waits on a pipe for a run
command — exactly :func:`compress_worker`'s keyword arguments — runs
it and replies with the run's CPU seconds, which is its ``done``.  The
parent places the process on its CPU set before sending the command.
This module is the whole import closure of a worker, so it stays clear
of the planner, the simulator and the parent-side pipeline.

Shutdown has two flavours, both lossless for published work:

- the feeder closes the raw ring → the worker drains what is left,
  closes its output ring and ends the run (the normal end of stream);
- SIGTERM → the worker stops *blocking* for new input, takes only
  records already published, flushes them downstream and ends the run
  (the supervisor's graceful drain — acked work is never dropped).

A worker never logs and takes no locks shared with the parent, so it
is safe to start under any start method, including a mid-run ``fork``
restart.
"""

from __future__ import annotations

import os
import signal
import stat
import time
from multiprocessing.connection import Connection

from repro.compress.codec import resolve_codec
from repro.live.queues import Closed
from repro.live.transport import Frame
from repro.mp.records import pack_record, unpack_record
from repro.mp.ring import SharedRing
from repro.util.errors import QueueTimeout

#: Idle get() timeout — bounds how late a waiting worker notices a
#: SIGTERM.
_IDLE_TICK = 0.2
#: How often an idle pooled worker checks that its parent still lives.
_ORPHAN_TICK = 1.0


def compress_worker(
    *,
    codec_spec: str,
    in_ring: str,
    out_ring: str,
    batch_frames: int = 1,
    crash_after: int | None = None,
) -> None:
    """Run one compressor domain until its input ring drains.

    A record in is a chunk's uncompressed frame, a record out its
    compressed frame followed by the compress call's ``(t0, t1)`` stamp
    (:mod:`repro.mp.records`).
    """
    draining = False

    def _on_term(signum: int, frame: object) -> None:
        nonlocal draining
        draining = True

    signal.signal(signal.SIGTERM, _on_term)

    # A spec *string* crosses the spawn boundary (instances never
    # pickle); adaptive sets re-build their selector per process.
    codec = resolve_codec(codec_spec)
    inr = SharedRing.attach(in_ring)
    outr = SharedRing.attach(out_ring)
    done = 0
    try:
        while True:
            try:
                # While draining, take only already-published records.
                raws = inr.get_many(
                    batch_frames, timeout=0 if draining else _IDLE_TICK
                )
            except Closed:
                break
            except QueueTimeout:
                if draining:
                    break
                continue
            out: list[bytes] = []
            for raw in raws:
                rec = unpack_record(raw)
                t0 = time.perf_counter()
                comp, codec_id = codec.compress_with_id(rec.payload)
                t1 = time.perf_counter()
                frame = Frame(
                    rec.stream_id, rec.index, comp, compressed=True,
                    orig_len=len(rec.payload), codec_id=codec_id,
                    traced=rec.traced,
                )
                out.append(pack_record(frame, (t0, t1)))
            outr.put_many(out)
            done += len(raws)
            if crash_after is not None and done >= crash_after:
                # Fault-injection hook: die the hard way, mid-stream,
                # without flushing anything or running handlers.
                os._exit(1)
        # Clean end of stream: seal the output so the collector finishes.
        # A crashing worker must NOT close it — its replacement will
        # keep producing into the same ring.
        outr.close()
    finally:
        inr.detach()
        outr.detach()


def serve(commands: Connection, replies: Connection) -> None:
    """A pooled worker's life: one :func:`compress_worker` run per command.

    Each run starts as a fresh worker would, with the command's codec,
    crash hook and rings, on the CPU set the parent placed it on.
    Between runs SIGTERM has its default meaning again.  The process
    ends on EOF, or when its parent is gone: under ``fork`` a later
    sibling holds a copy of this pipe's write end, so the parent's death
    alone need not bring EOF.  An exception in a run ends it too, as a
    non-zero exit code exactly like a crash.
    """
    _release_inherited_sockets()
    parent = os.getppid()
    while True:
        if not commands.poll(_ORPHAN_TICK):
            if os.getppid() != parent:
                return
            continue
        try:
            command = commands.recv()
        except EOFError:
            return
        cpu0 = time.process_time()
        compress_worker(**command)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        replies.send(time.process_time() - cpu0)


def _release_inherited_sockets() -> None:
    """Point every inherited socket descriptor at ``/dev/null``.

    A forked worker starts with a copy of each of the parent's
    descriptors, and a pooled one lives on: it would keep the parent's
    listeners bound and its socketpair ends open, so a peer would never
    see EOF.  ``dup2`` keeps the numbers taken, so a stale socket object
    closing one later cannot hit an unrelated descriptor.  Without
    ``/proc`` nothing is released; a spawned worker, the default,
    inherits no sockets anyway.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except FileNotFoundError:
        return
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                pass  # the listing's own descriptor, closed since
    finally:
        os.close(null)
