"""Live runtime: the pipeline with real threads, sockets and codecs.

The simulator (:mod:`repro.core`) answers the paper's *performance*
questions; this package proves the pipeline *logic* end-to-end on the
host it runs on: real worker threads connected by bounded queues, real
LZ4 (or zlib) compression, framed chunk transport over TCP/Unix
sockets, per-chunk checksums, and best-effort CPU affinity via
``sched_setaffinity`` where the host allows it.

Python's GIL means live throughput numbers say nothing about the
paper's claims (DESIGN.md §2); integrity and plumbing are what this
path verifies — and what `examples/live_pipeline.py` demonstrates.

Resilience (``docs/resilience.md``): the TCP endpoints survive
connection loss and frame corruption — the sender reconnects with
capped exponential backoff (:class:`~repro.faults.RetryPolicy`) and
replays unacknowledged frames, the receiver deduplicates and ACKs.
Chaos-test them by attaching a :class:`~repro.faults.FaultInjector`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.policy import RetryPolicy, TimeoutPolicy
    from repro.live.affinity import current_affinity, pin_current_thread
    from repro.live.queues import ClosableQueue, Closed
    from repro.live.remote import EndpointReport, ReceiverServer, SenderClient
    from repro.live.runtime import LiveConfig, LivePipeline, LiveReport
    from repro.live.transport import Frame, FramedReceiver, FramedSender

# Names load on first access, so a compressor process importing
# ``repro.live.affinity`` or ``repro.live.queues`` does not drag in the
# sockets and the runtime.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.faults.policy": ("RetryPolicy", "TimeoutPolicy"),
    "repro.live.affinity": ("current_affinity", "pin_current_thread"),
    "repro.live.queues": ("ClosableQueue", "Closed"),
    "repro.live.remote": ("EndpointReport", "ReceiverServer", "SenderClient"),
    "repro.live.runtime": ("LiveConfig", "LivePipeline", "LiveReport"),
    "repro.live.transport": ("Frame", "FramedReceiver", "FramedSender"),
})
