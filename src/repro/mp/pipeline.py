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
What lives here is only what differs: packing records into rings, the
collector loop, supervisor start/join/shutdown and the ``StatsBlock``
fold.

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

from repro.compress.codec import Codec, CodecSpec, codec_spec, wire_codec_name
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy
from repro.live import workers
from repro.live.assembly import Assembly, thread
from repro.live.dedup import StreamDedup
from repro.live.queues import Closed
from repro.live.runtime import LiveConfig, LivePipeline
from repro.live.stageset import StageSet
from repro.mp.records import ChunkRecord, pack_record, unpack_record
from repro.mp.supervisor import DomainSupervisor
from repro.mp.topology import plan_topology
from repro.telemetry.context import TraceContext
from repro.util.errors import ValidationError


class _OrigLen:
    """A length-only stand-in for the original payload.

    The sender path needs ``len(chunk.payload)`` for the frame's
    ``orig_len`` field and nothing else — the real bytes stayed in the
    worker process.  Carrying just the length keeps the parent from
    re-materializing every uncompressed chunk.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes


class _WireChunk:
    """A collected record shaped like a compressed live ``Chunk``."""

    __slots__ = (
        "stream_id", "index", "payload", "wire_payload", "codec_id", "trace",
    )

    def __init__(
        self,
        stream_id: str,
        index: int,
        orig_len: int,
        wire_payload: bytes,
        codec_id: int = 0,
        trace: object | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.index = index
        self.payload = _OrigLen(orig_len)
        self.wire_payload = wire_payload
        self.codec_id = codec_id
        #: Re-hydrated trace context for sampled chunks (the original
        #: object stayed in the parent; only the ring flag crossed).
        self.trace = trace


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
        topology = plan_topology(cfg)
        self.domains = topology.domains
        self.supervisor = DomainSupervisor(
            topology,
            codec_spec=str(codec_spec(asm.codec)),
            retry=retry,
            start_method=cfg.mp_start_method,
            telemetry=asm.tel,
            batch_frames=cfg.batch_frames,
        )
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
        # The compress stage ran out-of-process; fold the shared stats
        # slots into the ordinary stage accounting.
        if self.supervisor.stats is not None:
            comp = self.stats["compress"]
            cpu_us = 0
            for s in self.supervisor.stats.snapshot():
                comp.chunks += s.chunks
                comp.bytes_in += s.bytes_in
                comp.bytes_out += s.bytes_out
                comp.busy_seconds += s.busy_us / 1e6
                cpu_us += s.cpu_us
            # Pooled workers outlive the run, so the OS never books their
            # CPU to this process's reaped children; they book it here.
            self.fields["worker_cpu_s"] = cpu_us / 1e6
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
                    ChunkRecord(
                        stream_id=chunk.stream_id,
                        index=chunk.index,
                        payload=chunk.payload,
                        compressed=False,
                        orig_len=n,
                        traced=chunk.trace is not None,
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
        supervisor = self.supervisor
        tel, knobs, sendq, codec = self.tel, self.knobs, self.sendq, self.codec
        dedup, dedup_lock = self.dedup, self._dedup_lock
        ring = supervisor.comp_ring(domain)
        try:
            while True:
                try:
                    raws = ring.get_many(max(1, knobs.batch_frames))
                except Closed:
                    break
                batch: list[_WireChunk] = []
                for raw in raws:
                    rec = unpack_record(raw)
                    supervisor.ack(domain, rec.key)
                    with dedup_lock:
                        fresh = dedup.claim(rec.stream_id, rec.index)
                    if not fresh:
                        # A restart replayed work the dead worker had
                        # already finished.
                        if tel is not None:
                            tel.record_dedup()
                        continue
                    if tel is not None:
                        tel.record_chunk("compress", rec.stream_id, rec.orig_len)
                        workers._record_codec(
                            tel, "compress", rec.stream_id,
                            wire_codec_name(rec.codec_id)
                            if rec.codec_id
                            else codec.name,
                        )
                        if rec.stage_times is not None:
                            # The worker stamped its compress interval
                            # (perf_counter is shared across processes
                            # on this host) — surface it on the same
                            # per-domain track the thread pipeline
                            # would use.
                            tel.record_span(
                                "compress", rec.stage_times[0], rec.stage_times[1],
                                stream_id=rec.stream_id, chunk_id=rec.index,
                                track=f"mp-compress-{domain}",
                            )
                    trace = (
                        TraceContext(rec.stream_id, rec.index) if rec.traced else None
                    )
                    batch.append(
                        _WireChunk(
                            rec.stream_id, rec.index, rec.orig_len, rec.payload,
                            rec.codec_id, trace,
                        )
                    )
                put = 0
                while put < len(batch):
                    put += sendq.put_many(batch[put:])
        except Exception as exc:  # noqa: BLE001 - thread boundary
            self.stats["compress"].fail(f"collector-{domain}: {exc!r}")
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
