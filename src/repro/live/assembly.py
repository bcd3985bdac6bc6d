"""The one place the live pipeline chain is wired.

The paper's pipeline is a single chain::

    source -> {C} -> sendq -> {S} ==link==> {R} -> wireq -> {D} -> sink

and every entry point composes halves of it (the table is in
``docs/architecture.md``): :meth:`Assembly.front_threads` or
:class:`repro.mp.pipeline.ProcessFront`, then a link — socketpairs
(:meth:`Assembly.link_pairs`) or the TCP endpoints' own
(:mod:`repro.live.remote`) — then :meth:`Assembly.back`.  An
:class:`Assembly` owns what those compositions share, so each piece is
built in exactly one place.  All of it runs at construction time: the
threads execute the plain :mod:`repro.live.workers` bodies, with nothing
of this module between them and a chunk.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.live import workers
from repro.live.blocks import split_chunk, split_frame
from repro.live.queues import ClosableQueue
from repro.live.transport import socket_pipe
from repro.telemetry.context import HeadSampler

if TYPE_CHECKING:
    from repro.compress.codec import Codec
    from repro.data.chunking import Chunk
    from repro.live.runtime import LiveConfig

STAGES = ("feed", "compress", "send", "recv", "decompress")


def thread(
    name: str, target: Callable[..., None], *args: Any, **kw: Any
) -> threading.Thread:
    """The daemon thread every stage factory builds its workers from."""
    return threading.Thread(
        target=target, args=args, kwargs=kw, name=name, daemon=True
    )


class Assembly:
    """One run's wiring.  A stage is the list of its worker threads;
    every entry point runs the same plain blocking workers.  The threads
    close over the parts, never over this object, so a finished run is
    freed by refcount rather than waiting for the cycle collector."""

    def __init__(
        self, cfg: "LiveConfig", codec: "Codec", tel: Any, *, runner: str
    ) -> None:
        self.cfg, self.codec, self.tel, self.runner = cfg, codec, tel, runner
        self.stats = {name: workers.StageStats(name) for name in STAGES}
        self.sampler: HeadSampler | None = None
        # Without telemetry a trace has nowhere to land.
        if cfg.trace_sample > 0 and tel is not None:
            self.sampler = HeadSampler(cfg.trace_sample, cfg.trace_per_stream_cap)
        self.stages: dict[str, list[threading.Thread]] = {}
        self.sendq: ClosableQueue
        self.wireq: ClosableQueue
        #: A stage outside this process (the process front): ``start()``
        #: before the threads, ``join(timeout)`` after, ``shutdown()`` always.
        self.external: Any = None
        #: Extra run-event fields (the process front's domains/restarts).
        self.fields: dict[str, Any] = {}
        #: The ledger (kept when ``cfg.verify``): keys produced / seen.
        self.expected: set[tuple[str, int]] = set()
        self.delivered: dict[tuple[str, int], int] = {}
        #: The front cuts large chunks into blocks (set by
        #: :meth:`front_threads`; the process front never does).
        self.blocked = False
        self.elapsed = self._t0 = 0.0

    def queue(self, name: str, producers: int) -> ClosableQueue:
        return ClosableQueue(
            self.cfg.queue_capacity, producers=producers, name=name,
            telemetry=self.tel,
        )

    def widths(self, **counts: int) -> None:
        """Threads per stage — the telemetry's utilization denominators."""
        if self.tel is not None:
            self.tel.thread_counts.update(counts)

    def tracked(self, source: Iterable["Chunk"]) -> Iterator["Chunk"]:
        for chunk in source:
            self.expected.add((chunk.stream_id, chunk.index))
            yield chunk

    def front_threads(self, source: Iterable["Chunk"]) -> None:
        """feeder -> rawq -> compressor threads -> sendq.

        When the codec splits, the feeder hands the compressors blocks
        of large chunks (:mod:`repro.live.blocks`) and :attr:`blocked`
        tells :meth:`link_pairs` to cut the frames again on receipt."""
        cfg, aff, stats, tel = self.cfg, self.cfg.affinity, self.stats, self.tel
        codec, sampler = self.codec, self.sampler
        if cfg.verify:
            source = self.tracked(source)
        self.blocked = codec.splits
        split = split_chunk if codec.splits else None
        rawq = self.queue("rawq", 1)
        sendq = self.sendq = self.queue("sendq", cfg.compress_threads)
        self.stages["feed"] = [thread(
            "feeder", workers.feeder, source, rawq, stats["feed"],
            aff.get("feed"), sampler=sampler, split=split, telemetry=tel,
        )]
        self.stages["compress"] = [
            thread(
                f"compress-{i}", workers.compressor, codec, rawq, sendq,
                stats["compress"], aff.get("compress"), telemetry=tel,
            )
            for i in range(cfg.compress_threads)
        ]
        self.widths(feed=1, compress=cfg.compress_threads)

    def link_pairs(self) -> None:
        """sendq -> a socketpair sender/receiver per connection -> wireq."""
        cfg, aff, stats = self.cfg, self.cfg.affinity, self.stats
        tel, sendq = self.tel, self.sendq
        wireq = self.wireq = self.queue("wireq", cfg.connections)
        split = split_frame if self.blocked else None
        link: list[threading.Thread] = []
        for i in range(cfg.connections):
            tx, rx = socket_pipe(telemetry=tel)
            link += [
                thread(
                    f"send-{i}", workers.sender, tx, sendq, stats["send"],
                    cpus=aff.get("send"), telemetry=tel,
                ),
                thread(
                    f"recv-{i}", workers.receiver, rx, wireq, stats["recv"],
                    aff.get("recv"), split=split, telemetry=tel,
                ),
            ]
        self.stages["send"] = link
        self.widths(send=cfg.connections, recv=cfg.connections)

    def back(
        self,
        sink: Callable[[str, int, bytes | bytearray], None] | None,
        after: Callable[[str, int], None] | None = None,
    ) -> None:
        """wireq -> decompressor threads -> sink wrapper.

        The wrapper keeps the ``(stream, index)`` ledger when the config
        asks to verify, then calls ``sink`` and ``after`` (the event
        plane's budget release); the decompress stats count deliveries.
        """
        cfg, codec, wireq, tel = self.cfg, self.codec, self.wireq, self.tel
        stats = self.stats["decompress"]
        lock, delivered, ledger = threading.Lock(), self.delivered, cfg.verify

        def ledger_sink(stream_id: str, index: int, data: bytes | bytearray) -> None:
            if ledger:
                key = (stream_id, index)
                with lock:
                    delivered[key] = delivered.get(key, 0) + 1
            if sink is not None:
                sink(stream_id, index, data)
            if after is not None:
                after(stream_id, index)

        self.stages["decompress"] = [
            thread(
                f"decompress-{i}", workers.decompressor, codec, wireq, stats,
                ledger_sink, cfg.affinity.get("decompress"), telemetry=tel,
            )
            for i in range(cfg.decompress_threads)
        ]
        self.widths(decompress=cfg.decompress_threads)

    def begin(self, message: str, **fields: Any) -> None:
        if self.tel is not None:
            self.tel.emit_event(
                "run_start", message, runner=self.runner, **fields, **self.fields
            )
        self._t0 = time.perf_counter()

    def execute(self, body: Callable[[], list[str]] | None = None) -> list[str]:
        """Run every stage to end-of-stream, check the ledger and return
        the errors.  ``body`` runs on the calling thread between start
        and join (the receiver's accept loop)."""
        timeout = self.cfg.timeouts.join
        threads = [t for stage in self.stages.values() for t in stage]
        external = self.external
        errors: list[str] = []
        try:
            if external is not None:
                external.start()
            for t in threads:
                t.start()
            if body is not None:
                errors.extend(body())
            for t in threads:
                t.join(timeout)
                if t.is_alive():
                    errors.append(f"thread {t.name} did not finish (deadlock?)")
            if external is not None:
                errors.extend(external.join(timeout))
            self.elapsed = time.perf_counter() - self._t0
        finally:
            if external is not None:
                external.shutdown()
        for s in self.stats.values():
            errors.extend(s.errors)
        if self.cfg.verify and not errors:
            missing = sorted(self.expected - self.delivered.keys())
            dupes = sorted(k for k, n in self.delivered.items() if n > 1)
            if missing:
                errors.append(
                    f"{len(missing)} chunks never delivered: {missing[:3]}..."
                )
            if dupes:
                errors.append(f"duplicated chunks: {dupes[:3]}...")
        return errors

    def end(self, message: str, errors: list[str], **fields: Any) -> None:
        if self.tel is not None:
            self.tel.emit_event(
                "run_end", message, severity="error" if errors else "info",
                runner=self.runner, ok=not errors,
                elapsed_s=round(self.elapsed, 6), **fields, **self.fields,
            )
