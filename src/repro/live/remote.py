"""Two-endpoint live pipeline over real TCP, with fault recovery.

:class:`~repro.live.runtime.LivePipeline` links its halves through
socketpairs; this module splits them into network endpoints so the
paper's Figure-10 shape (sender machine → receiver machine, x TCP
connections) runs for real.  :class:`SenderClient` is the front half
plus resilient connections; :class:`ReceiverServer` is the event-loop
receive plane plus the back half (:mod:`repro.live.assembly` wires both).

Together they implement wire-format v2 (``docs/resilience.md``):
at-least-once transmission plus receiver-side dedup on (stream, index)
gives exactly-once delivery at the sink, which the chaos test
(``tests/integration/test_chaos.py``) holds them to while connections
are killed and frames corrupted mid-stream.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.compress.codec import Codec, CodecSpec, resolve_codec
from repro.data.chunking import Chunk
from repro.faults.policy import RetryPolicy, TimeoutPolicy
from repro.live import workers
from repro.live.assembly import Assembly, thread
from repro.live.eventloop import (
    DEFAULT_STREAM_BUDGET,
    EventLoopPlane,
    default_shards,
    run_accept_loop,
)
from repro.live.runtime import LiveConfig
from repro.live.stageset import StageSet
from repro.live.transport import FramedSender
from repro.plan.ir import REMOVED_RECEIVER_PLANE
from repro.telemetry.facade import as_telemetry
from repro.util.errors import TransportError, ValidationError


@dataclass
class EndpointReport:
    """Outcome of one endpoint's run.

    Implements the shared result protocol
    (:class:`repro.core.results.RunResult`): ``ok``, ``summary()``,
    ``to_dict()``.
    """

    role: str
    chunks: int
    payload_bytes: int
    wire_bytes: int
    elapsed: float
    errors: list[str] = field(default_factory=list)
    #: Unified metrics/spans for the run (None when telemetry was off).
    telemetry: "object | None" = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "ok" if self.ok else f"ERRORS: {'; '.join(self.errors)}"
        return (
            f"{self.role}: chunks={self.chunks} "
            f"payload={self.payload_bytes / 1e6:.2f}MB "
            f"wire={self.wire_bytes / 1e6:.2f}MB "
            f"elapsed={self.elapsed:.2f}s [{status}]"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "role": self.role,
            "ok": self.ok,
            "chunks": self.chunks,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "elapsed": self.elapsed,
            "errors": list(self.errors),
        }


class ReceiverServer:
    """Accepts sender connections and runs the receiver-side stages.

    Connection loss is survivable: the listener stays open until every
    logical sender connection has delivered its end-of-stream and
    closed cleanly, so a sender that reconnects mid-stream is simply
    re-accepted.  Redelivered chunks are deduplicated on
    (stream, index) before they reach the decompressors, and every
    accepted frame is acknowledged back to the sender (wire-format v2).

    Connections are multiplexed by a fixed pool of selector-driven
    reactor shards (:mod:`repro.live.eventloop`).  ``mode`` is accepted
    for callers that still name the plane; ``"eventloop"`` is the only
    one.

    The listener socket binds in ``__init__``; use :meth:`close` (or
    the context-manager form) when :meth:`serve` is never reached.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        codec: Codec | CodecSpec | str = "zlib",
        connections: int = 1,
        decompress_threads: int = 2,
        queue_capacity: int = 8,
        batch_frames: int = 1,
        mode: str = "eventloop",
        shards: int = 0,
        stream_budget_bytes: int = DEFAULT_STREAM_BUDGET,
        timeouts: TimeoutPolicy | None = None,
        telemetry: "bool | object" = False,
    ) -> None:
        if mode != "eventloop":
            raise ValidationError(
                f"mode must be 'eventloop', not {mode!r}: {REMOVED_RECEIVER_PLANE}"
            )
        if stream_budget_bytes < 1:
            raise ValidationError("stream_budget_bytes must be >= 1")
        self.codec = resolve_codec(codec)
        #: Sizing, validated the way the in-process pipeline's is; the
        #: receiver has no source to verify deliveries against.
        self.config = LiveConfig(
            connections=connections,
            decompress_threads=decompress_threads,
            queue_capacity=queue_capacity,
            batch_frames=batch_frames,
            receiver_shards=shards,
            timeouts=timeouts,
            verify=False,
        )
        self.connections = connections
        self.decompress_threads = decompress_threads
        self.shards = shards or default_shards()
        self.stream_budget_bytes = stream_budget_bytes
        self.timeouts = self.config.timeouts
        self.telemetry = as_telemetry(telemetry)
        self._closed = False
        self._listener = socket.create_server((host, port))

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) actually bound (port resolves 0 → ephemeral)."""
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        """Release the listener; idempotent, safe before/after serve()."""
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "ReceiverServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def serve(
        self, sink: Callable[[str, int, bytes], None] | None = None
    ) -> EndpointReport:
        """Accept connections (and re-connections) to end-of-stream."""
        asm = Assembly(
            self.config, self.codec, self.telemetry,
            runner="ReceiverServer", reconfigurable=False,
        )
        asm.begin(
            "receiver serving", connections=self.connections,
            decompress_threads=self.decompress_threads, shards=self.shards,
        )
        # serve() is the only producer: the plane feeds it frames, and
        # pump() seals the queue once every logical connection finished.
        asm.wireq = asm.queue("wireq", 1, "decompress")
        plane = EventLoopPlane(
            shards=self.shards, wireq=asm.wireq, recv_stats=asm.stats["recv"],
            telemetry=self.telemetry,
            stream_budget_bytes=self.stream_budget_bytes,
        )
        asm.widths(recv=self.shards)
        asm.back(sink, after=plane.on_delivered)

        def pump() -> list[str]:
            errors: list[str] = []
            plane.start()
            try:
                run_accept_loop(
                    plane, self._listener, connections=self.connections,
                    accept_timeout=self.timeouts.accept, errors=errors,
                )
            finally:
                self.close()
            errors.extend(plane.stop(self.timeouts.join))
            asm.wireq.close()
            return errors

        errors = asm.execute(body=pump)
        delivered = asm.stats["decompress"]
        asm.end("receiver finished", errors, chunks=delivered.chunks)
        return EndpointReport(
            role="receiver",
            chunks=delivered.chunks,
            payload_bytes=delivered.bytes_out,
            wire_bytes=asm.stats["recv"].bytes_in,
            elapsed=asm.elapsed,
            errors=errors,
            telemetry=self.telemetry,
        )


class SenderClient:
    """Compresses chunks and ships them over resilient TCP connections.

    Each connection runs :func:`repro.live.workers.resilient_sender`:
    frames are retained until acknowledged, dead connections are
    re-dialed with ``retry``'s capped exponential backoff, and the
    unacknowledged tail is replayed in order.  An optional
    :class:`~repro.faults.FaultInjector` sabotages outgoing frames for
    chaos testing.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        codec: Codec | CodecSpec | str = "zlib",
        connections: int = 1,
        compress_threads: int = 2,
        queue_capacity: int = 8,
        batch_frames: int = 1,
        batch_linger: float = 0.0,
        timeouts: TimeoutPolicy | None = None,
        retry: RetryPolicy | None = None,
        injector=None,
        telemetry: "bool | object" = False,
        trace_sample: int = 0,
        trace_per_stream_cap: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.codec = resolve_codec(codec)
        #: Sizing, validated the way the in-process pipeline's is; the
        #: sender has no sink to verify deliveries at.
        self.config = LiveConfig(
            connections=connections,
            compress_threads=compress_threads,
            queue_capacity=queue_capacity,
            batch_frames=batch_frames,
            batch_linger=batch_linger,
            timeouts=timeouts,
            trace_sample=trace_sample,
            trace_per_stream_cap=trace_per_stream_cap,
            verify=False,
        )
        self.connections = connections
        self.compress_threads = compress_threads
        self.timeouts = self.config.timeouts
        self.retry = retry or RetryPolicy()
        self.injector = injector
        self.telemetry = as_telemetry(telemetry)

    def _dial(self, index: int) -> FramedSender:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeouts.connect
        )
        sock.settimeout(None)
        return FramedSender(
            sock, telemetry=self.telemetry, injector=self.injector,
            connection=index,
        )

    def run(self, source: Iterable[Chunk]) -> EndpointReport:
        """Stream every chunk of ``source`` to the receiver."""
        asm = Assembly(
            self.config, self.codec, self.telemetry,
            runner="SenderClient", reconfigurable=False,
        )
        asm.begin(
            f"sender dialing {self.host}:{self.port}",
            connections=self.connections, compress_threads=self.compress_threads,
        )
        senders: list[FramedSender] = []
        try:
            for i in range(self.connections):
                senders.append(self._dial(i))
        except OSError as exc:
            # Don't leak the connections that did dial before the
            # failure — close them before surfacing the error.
            for tx in senders:
                try:
                    tx.sock.close()
                except OSError:
                    pass
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        asm.front_threads(source)
        # The link: one at-least-once sender per dialed connection.
        sendq, stats, kw = asm.sendq, asm.stats, asm.kw
        asm.stages["send"] = StageSet(
            "send",
            lambda i, stop: thread(
                f"send-{i}", workers.resilient_sender, senders[i],
                lambda: self._dial(i), sendq, stats["send"], retry=self.retry,
                drain_timeout=self.timeouts.drain, **kw,
            ),
            count=self.connections,
        )
        asm.widths(send=self.connections)
        errors = asm.execute()
        asm.end("sender finished", errors, chunks=stats["send"].chunks)
        return EndpointReport(
            role="sender",
            chunks=stats["send"].chunks,
            payload_bytes=stats["feed"].bytes_in,
            wire_bytes=stats["send"].bytes_out,
            elapsed=asm.elapsed,
            errors=errors,
            telemetry=self.telemetry,
        )
