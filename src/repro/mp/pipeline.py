"""`repro live --mode process`: the compress stage as processes.

``LiveConfig.execution_mode = "process"`` makes
:class:`~repro.live.runtime.LivePipeline` swap its front half for
:class:`ProcessFront`, which moves the compress stage into real
processes: one compressor process per NUMA domain, each with its own
pair of domain-local rings (the dgen-rs lesson: locality of the
*buffers*, not just the threads).  Everything downstream of the collectors is
the thread pipeline verbatim — the same :mod:`repro.live.assembly`
halves, same socketpairs, same frames — so receiver output is
byte-identical between modes and every report/metric reads the same.
What lives here is only what differs: the ring feeder, the collector
loop and supervisor start/join/shutdown.

A chunk crosses each ring as its wire frame, plus the worker's compress
stamp on the way out (:mod:`repro.mp.records`; ``ChunkRecord`` is
``Frame`` for perfbench, whose ``mp.records.*`` rows now include a
CRC-32: 0.05 → 0.12 ms per 256 KiB record).  The collector decodes it
with the transport's own checks and forwards the same frame a compress
thread puts on ``sendq`` in thread mode.  The stamp is the worker's one
report: from it the collector books the compress stage, and with
telemetry attached the ``compress`` span on the worker's
``mp-compress-N`` track, whose end is that worker's heartbeat.

Delivery is exactly-once across worker crashes: the supervisor replays
dispatched-but-uncollected records into the restarted worker's ring
(at-least-once), and the collectors deduplicate on ``(stream, index)``
before anything reaches the wire.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Iterable

from repro.compress.codec import Codec, CodecSpec, codec_spec
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy
from repro.live import workers
from repro.live.assembly import Assembly, thread
from repro.live.dedup import StreamDedup
from repro.live.queues import Closed
from repro.live.runtime import LiveConfig, LivePipeline
from repro.live.stageset import StageSet
from repro.live.transport import Frame
from repro.mp.records import pack_record, unpack_stamped
from repro.mp.supervisor import DomainSupervisor
from repro.util.errors import ValidationError


class ProcessFront:
    """The pipeline's front half with compression out of process::

        mp-feeder -> raw ring[d] -> [compress proc d] -> comp ring[d]
        -> collector-d -> sendq

    Registers its ``feed`` and ``collect`` stage sets on the assembly
    and is its ``external`` stage: the supervisor's processes start
    before the threads, are joined after them, and their shared segments
    are released whatever happened.  It takes the assembly's parts, not
    the assembly, so the two never form a reference cycle.
    """

    def __init__(
        self,
        asm: Assembly,
        source: Iterable[Chunk],
        retry: RetryPolicy | None = None,
    ) -> None:
        cfg = asm.cfg
        self.source = source
        self.tel, self.codec, self.knobs = asm.tel, asm.codec, asm.knobs
        self.sampler, self.stats = asm.sampler, asm.stats
        #: The ledger, kept only when the run verifies (as thread mode).
        self.expected = asm.expected if cfg.verify else None
        self.fields = asm.fields
        self.supervisor = DomainSupervisor(
            cfg, codec_spec=str(codec_spec(asm.codec)), retry=retry,
            telemetry=asm.tel,
        )
        self.domains = self.supervisor.domains
        #: Replay dedup across all collectors (guarded by the lock).
        self.dedup = StreamDedup()
        self._dedup_lock = threading.Lock()
        self.sendq = asm.sendq = asm.queue("sendq", self.domains, "send")
        asm.stages["feed"] = StageSet(
            "feed", lambda i, stop: thread("mp-feeder", self._feed), count=1
        )
        # One collector per domain ring — the count is topology, not a
        # tunable, so the set stays non-scalable.
        asm.stages["collect"] = StageSet(
            "collect",
            lambda i, stop: thread(f"collector-{i}", self._collect, i),
            count=self.domains,
            downstream=self.sendq,
        )
        asm.widths(feed=1, compress=self.domains)
        self.fields["domains"] = self.domains
        asm.respawn_hooks["compress"] = self.respawn

    # -- the assembly's external stage ------------------------------------

    def start(self) -> None:
        self.supervisor.start()

    def join(self, timeout: float) -> list[str]:
        errors = self.supervisor.join(timeout)
        self.fields["restarts"] = self.supervisor.restarts
        # Pooled workers outlive the run, so the OS never books their
        # CPU to this process's reaped children; their done replies do
        # (a crashed run never replied).
        self.fields["worker_cpu_s"] = sum(
            w.cpu_s for w in self.supervisor.workers.values()
        )
        return errors

    def shutdown(self) -> None:
        self.supervisor.shutdown()

    def respawn(self) -> bool:
        """The controller's compress-respawn lever.

        Compress workers are processes, not threads: the supervisor
        SIGKILLs each and lets the crash path restart-and-replay it
        (exactly-once holds — collectors dedup on key).  Every domain is
        cycled; a stall signal doesn't say which domain's worker went
        quiet.
        """
        results = [self.supervisor.respawn(d) for d in range(self.domains)]
        return any(results)

    # -- thread bodies ---------------------------------------------------

    def _feed(self) -> None:
        supervisor, ndomains, expected = self.supervisor, self.domains, self.expected
        tel, sampler, stats = self.tel, self.sampler, self.stats["feed"]
        next_domain = 0
        try:
            for chunk in self.source:
                if chunk.payload is None:
                    raise ValidationError("live pipeline chunks need payloads")
                if sampler is not None and chunk.trace is None:
                    chunk.trace = sampler.sample_chunk(chunk.stream_id, chunk.index)
                key = (chunk.stream_id, chunk.index)
                n = len(chunk.payload)
                if expected is not None:
                    expected.add(key)
                packed = pack_record(
                    Frame(
                        chunk.stream_id, chunk.index, chunk.payload,
                        orig_len=n, traced=chunk.trace is not None,
                    )
                )
                t0 = time.perf_counter()
                supervisor.dispatch(next_domain % ndomains, key, packed)
                next_domain += 1
                t1 = time.perf_counter()
                stats.record(n, n, t1 - t0)
                if tel is not None:
                    tel.record_chunk("feed", chunk.stream_id, n)
                    tel.heartbeat("mp-feeder")
                    if chunk.trace is not None:
                        tel.record_span(
                            "feed", t0, t1, stream_id=chunk.stream_id,
                            chunk_id=chunk.index, track="mp-feeder",
                        )
        except Exception as exc:  # noqa: BLE001 - thread boundary
            stats.fail(f"feeder: {exc!r}")
        finally:
            supervisor.close_inputs()

    def _collect(self, domain: int) -> None:
        """Decode, ack, dedup and forward one domain's compressed frames,
        booking each fresh one into the compress stage from its stamp.

        A record the decoder refuses fails the run as a compress-stage
        error; the frames collected ahead of it are forwarded first."""
        supervisor, stats = self.supervisor, self.stats["compress"]
        tel, knobs, sendq, codec = self.tel, self.knobs, self.sendq, self.codec
        dedup, dedup_lock = self.dedup, self._dedup_lock
        ring = supervisor.comp[domain]
        track = f"mp-compress-{domain}"
        try:
            while True:
                try:
                    raws = ring.get_many(max(1, knobs.batch_frames))
                except Closed:
                    break
                batch: list[Frame] = []
                try:
                    for raw in raws:
                        frame, stamp = unpack_stamped(raw)
                        sid, index = frame.stream_id, frame.index
                        supervisor.ack(domain, (sid, index))
                        with dedup_lock:
                            fresh = dedup.claim(sid, index)
                        if not fresh:
                            # A restart replayed work the dead worker
                            # had already finished.
                            if tel is not None:
                                tel.record_dedup()
                            continue
                        stats.record(
                            frame.orig_len, len(frame.payload),
                            stamp[1] - stamp[0] if stamp else 0.0,
                        )
                        if tel is not None:
                            tel.record_chunk("compress", sid, frame.orig_len)
                            workers.record_codec(tel, "compress", frame, codec)
                            if stamp is not None:
                                tel.record_span(
                                    "compress", *stamp, stream_id=sid,
                                    chunk_id=index, track=track,
                                )
                        batch.append(frame)
                finally:
                    sendq.put_many(batch)
        except Exception as exc:  # noqa: BLE001 - thread boundary
            stats.fail(f"collector-{domain}: {exc!r}")
        finally:
            sendq.close()


class ProcessPipeline(LivePipeline):
    """:class:`~repro.live.runtime.LivePipeline` in process mode.

    The convenience name for ``LivePipeline(LiveConfig(execution_mode=
    "process"))``: forces the mode on whatever config it is handed and
    takes the compressor processes' restart policy.
    """

    def __init__(
        self,
        config: LiveConfig | None = None,
        codec: "Codec | CodecSpec | str | None" = None,
        *,
        telemetry: "bool | object" = False,
        retry: RetryPolicy | None = None,
        controller: "object | None" = None,
    ):
        config = dataclasses.replace(config or LiveConfig(), execution_mode="process")
        super().__init__(config, codec, telemetry=telemetry, controller=controller)
        self.retry = retry
