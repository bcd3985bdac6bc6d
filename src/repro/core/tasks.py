"""Simulated pipeline tasks: flow construction + worker processes.

Each pipeline thread of Figure 2 is a generator-based simulated process
that loops *get chunk → run flow → put chunk*.  The flow's demand vector
encodes exactly where the bytes move (which core, which memory
controllers, QPI crossings, NIC ports, softIRQ core), so NUMA placement
falls out of the resource model instead of being hand-waved.

Demand conventions (per payload byte of the stage's work unit):

=============  =========================  =================================
stage          work unit                  resources touched
=============  =========================  =================================
ingest         uncompressed bytes         core, src-read, local write, LLC
compress       uncompressed input bytes   core, read(home), write(1/ratio)
send           wire bytes                 core, read(home), write(local)
wire           wire bytes                 snd NIC tx+pcie, path, rcv NIC
                                          rx+pcie, DMA into NIC socket MC,
                                          softIRQ core; per-connection cap
recv           wire bytes                 core(×stall if remote), read(NIC
                                          socket), write(local), LLC
decompress     uncompressed output bytes  core, read(home, 1/ratio), write,
                                          extra MC + LLC amplification
=============  =========================  =================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.config import StageKind, StreamConfig
from repro.core.params import CostModel, PathSpec
from repro.core.placement import ThreadHome
from repro.data.chunking import Chunk
from repro.hw.machine import Machine
from repro.hw.memory import merge_demands
from repro.hw.nic import Nic
from repro.sim.engine import Engine
from repro.sim.flows import Flow, FlowNetwork, Resource
from repro.sim.queues import Store
from repro.util.errors import ConfigurationError
from repro.util.timeseries import RateMeter

#: End-of-stream sentinel passed through pipeline queues.
END = object()


@dataclass
class StageMeters:
    """Throughput accounting for one stage of one stream."""

    bytes_meter: RateMeter = field(default_factory=RateMeter)
    wire_meter: RateMeter = field(default_factory=RateMeter)
    chunks: int = 0

    def record(self, t: float, chunk: Chunk, start: float | None = None) -> None:
        self.bytes_meter.add(t, chunk.nbytes, start)
        self.wire_meter.add(t, chunk.wire_bytes, start)
        self.chunks += 1

    def steady_rate_Bps(self, skip: int, *, wire: bool = False) -> float:
        """Average bytes/s after discarding the first ``skip`` chunks.

        Completions that share the window-start timestamp are excluded:
        with N synchronized workers, chunks finish in batches of N at
        identical simulated instants, and counting the batch that
        *defines* t0 would overstate the rate by up to (N-1)/chunks.

        Work that *straddles* the window start is prorated: a flow that
        began before t0 but completed inside the window only transferred
        part of its bytes after t0, and crediting all of them to the
        window can report a rate above the physical link capacity on
        short runs (pipelined transfers in flight at t0 all land in a
        window much shorter than their own duration).
        """
        meter = self.wire_meter if wire else self.bytes_meter
        events = meter.events
        if len(events) <= skip + 1:
            return 0.0
        t0 = events[skip][0]
        t1 = events[-1][0]
        if t1 <= t0:
            return 0.0
        amount = 0.0
        for (t, a), s in zip(events[skip + 1 :], meter.starts[skip + 1 :]):
            if t <= t0:
                continue
            if s >= t0 or t <= s:
                amount += a
            else:
                amount += a * (t - t0) / (t - s)
        return amount / (t1 - t0)


class StageGate:
    """Counts a stage's live workers; the last one closes downstream."""

    def __init__(self, count: int, close: Callable[[], None]) -> None:
        self._remaining = count
        self._close = close

    def worker_done(self) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._close()
        elif self._remaining < 0:  # pragma: no cover - defensive
            raise ConfigurationError("stage gate underflow")


@dataclass
class StreamContext:
    """Everything one stream's workers need to build flows."""

    engine: Engine
    network: FlowNetwork
    cost: CostModel
    config: StreamConfig
    sender: Machine
    receiver: Machine
    path_spec: PathSpec
    path_resource: Resource
    sender_nic: Nic
    receiver_nic: Nic
    #: recv-thread homes by connection index (wire pump reads the
    #: *current* socket for remote penalties).
    recv_homes: list[ThreadHome] = field(default_factory=list)

    meters: dict[StageKind, StageMeters] = field(default_factory=dict)
    #: Optional unified telemetry (see :mod:`repro.telemetry`); spans,
    #: counters and frame totals are emitted on the engine's virtual
    #: clock.
    telemetry: "object | None" = None

    def meter(self, kind: StageKind) -> StageMeters:
        return self.meters.setdefault(kind, StageMeters())

    def stage_rate(self, micro_rate: float) -> float:
        return self.cost.stage_rate(micro_rate, pipeline=not self.config.micro)


# ---------------------------------------------------------------------------
# flow builders
# ---------------------------------------------------------------------------


def _cpu_demand(machine: Machine, core, rate_Bps: float) -> dict:
    """Core-seconds per payload byte at a per-reference-core rate."""
    return {machine.core(core): 1.0 / rate_Bps}


def ingest_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    m = ctx.sender
    src = (
        ctx.config.source_socket
        if ctx.config.source_socket is not None
        else core.socket
    )
    demands = merge_demands(
        _cpu_demand(m, core, ctx.cost.ingest_rate),
        m.memory.read(core.socket, src),
        m.memory.write(core.socket, core.socket),
    )
    return Flow(
        chunk.nbytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "ingest",
            "stream": chunk.stream_id,
        },
    )


def compress_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    m = ctx.sender
    home = chunk.home_socket if chunk.home_socket is not None else core.socket
    rate = ctx.stage_rate(ctx.cost.compress_rate)
    demands = merge_demands(
        _cpu_demand(m, core, rate),
        m.memory.read(core.socket, home),
        m.memory.write(core.socket, core.socket, 1.0 / chunk.ratio),
    )
    # Extra LLC pressure beyond the implicit copy traffic (read 1 +
    # write 1/ratio already charge the LLC via MemorySystem).
    extra_llc = ctx.cost.compress_llc_factor - (1.0 + 1.0 / chunk.ratio)
    if extra_llc > 0:
        demands = merge_demands(demands, {m.llc(core.socket): extra_llc})
    return Flow(
        chunk.nbytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "compress",
            "stream": chunk.stream_id,
        },
    )


def send_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    m = ctx.sender
    home = chunk.home_socket if chunk.home_socket is not None else core.socket
    demands = merge_demands(
        _cpu_demand(m, core, ctx.cost.send_cpu_rate),
        m.memory.read(core.socket, home),
        m.memory.write(core.socket, core.socket),
    )
    return Flow(
        chunk.wire_bytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "send",
            "stream": chunk.stream_id,
        },
    )


def wire_flow(ctx: StreamContext, chunk: Chunk, connection: int, send_socket: int) -> Flow:
    """The TCP connection + NIC + DMA leg between send and recv threads."""
    rx_nic = ctx.receiver_nic
    demands = merge_demands(
        ctx.sender_nic.tx_wire_demands(send_socket),
        {ctx.path_resource: 1.0},
        rx_nic.rx_wire_demands(),
    )
    # Kernel RX processing on the queue's IRQ-affinity core (§2.2).
    queue = rx_nic.rss_queue(f"{chunk.stream_id}/{connection}")
    softirq_core = rx_nic.softirq_core(queue)
    demands = merge_demands(
        demands,
        _cpu_demand(ctx.receiver, softirq_core, ctx.cost.softirq_rate),
    )
    cap = ctx.path_spec.stream_cap_Bps()
    max_rate = None
    if cap is not None:
        # A remote receive thread drains slower, shrinking the effective
        # window (remote_stream_penalty derivation in params.py).
        recv_home = ctx.recv_homes[connection]
        if recv_home.socket != rx_nic.socket:
            cap *= ctx.cost.remote_stream_penalty
        max_rate = cap
    return Flow(
        chunk.wire_bytes,
        demands,
        max_rate=max_rate,
        tags={
            "core": ctx.receiver.core(softirq_core).name,
            "stage": "wire",
            "stream": chunk.stream_id,
        },
    )


def recv_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    m = ctx.receiver
    nic_socket = ctx.receiver_nic.socket
    rate = ctx.cost.recv_cpu_rate
    if core.socket != nic_socket:
        rate /= ctx.cost.remote_stall_factor
    demands = merge_demands(
        _cpu_demand(m, core, rate),
        m.memory.read(core.socket, nic_socket),
        m.memory.write(core.socket, core.socket),
    )
    return Flow(
        chunk.wire_bytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "recv",
            "stream": chunk.stream_id,
        },
    )


def decompress_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    m = ctx.receiver
    home = chunk.home_socket if chunk.home_socket is not None else core.socket
    rate = ctx.stage_rate(ctx.cost.decompress_rate)
    compressed_fraction = 1.0 / chunk.ratio
    demands = merge_demands(
        _cpu_demand(m, core, rate),
        m.memory.read(core.socket, home, compressed_fraction),
        m.memory.write(core.socket, core.socket),
        # Recent-output re-reads that miss LLC (decompress_mc_factor),
        # charged on the output socket's controller.
        {m.mc(core.socket): ctx.cost.decompress_mc_factor - 1.0},
    )
    # Match-copy LLC amplification beyond implicit copy traffic.
    implicit_llc = compressed_fraction + 1.0
    extra_llc = ctx.cost.decompress_llc_factor - implicit_llc
    if extra_llc > 0:
        demands = merge_demands(demands, {m.llc(core.socket): extra_llc})
    return Flow(
        chunk.nbytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "decompress",
            "stream": chunk.stream_id,
        },
    )


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def egest_flow(ctx: StreamContext, chunk: Chunk, core) -> Flow:
    """Sink write: decompressed chunk → application memory / page cache."""
    m = ctx.receiver
    home = chunk.home_socket if chunk.home_socket is not None else core.socket
    demands = merge_demands(
        _cpu_demand(m, core, ctx.cost.egest_rate),
        m.memory.read(core.socket, home),
        m.memory.write(core.socket, core.socket),
    )
    return Flow(
        chunk.nbytes,
        demands,
        tags={
            "core": m.core(core).name,
            "stage": "egest",
            "stream": chunk.stream_id,
        },
    )


def dispatcher_proc(
    ctx: StreamContext,
    source: Iterator[Chunk],
    outq: Store,
    downstream_count: int,
):
    """Feeds the first queue from the chunk source (zero sim cost),
    then one END per worker of the first stage."""
    for chunk in source:
        if ctx.config.source_socket is not None:
            chunk.home_socket = ctx.config.source_socket
        yield outq.put(chunk)
    for _ in range(downstream_count):
        outq.force_put(END)


def _fault_plan(
    ctx: StreamContext, stage_value: str, index: int, processed: int
) -> tuple[float, list[str]]:
    """Injected (dead_time, redo_kinds) for this thread's next chunk.

    ``redo_kinds`` lists the one-shot ``crash``/``reconnect`` faults
    firing on this chunk: the worker runs the chunk's flow once for
    nothing (the work lost with the dead thread / dropped connection),
    pays the fault's ``duration`` as recovery time, then processes the
    chunk for real — the same recovery cost shape the resilient live
    transport exhibits (backoff + replay of the unacknowledged tail).
    """
    delay = 0.0
    redo: list[str] = []
    for fault in ctx.config.faults:
        if fault.stage != stage_value or fault.thread_index != index:
            continue
        if fault.kind == "stall" and processed == fault.at_chunk:
            delay += fault.duration
            if ctx.telemetry is not None:
                ctx.telemetry.emit_event(
                    "fault_injected",
                    f"stall fault on {stage_value}[{index}] "
                    f"at chunk {processed}",
                    severity="warning",
                    fault="stall",
                    stage=stage_value,
                    thread_index=index,
                    chunk=processed,
                    duration_s=fault.duration,
                )
        elif fault.kind == "degrade" and processed >= fault.at_chunk:
            delay += fault.duration
        elif (
            fault.kind in ("crash", "reconnect")
            and processed == fault.at_chunk
        ):
            delay += fault.duration
            redo.append(fault.kind)
    return delay, redo


def _record_recovery(ctx: StreamContext, fault_kind: str) -> None:
    """Book one crash/reconnect recovery into the resilience ledger."""
    if ctx.telemetry is None:
        return
    ctx.telemetry.record_fault(fault_kind)
    ctx.telemetry.record_retry()
    if fault_kind == "reconnect":
        ctx.telemetry.record_redelivery()
    ctx.telemetry.emit_event(
        "fault_injected",
        f"{fault_kind} fault recovered",
        severity="warning",
        fault=fault_kind,
    )


def stage_worker_proc(
    ctx: StreamContext,
    kind: StageKind,
    home: ThreadHome,
    inq: Store,
    outq: Store | None,
    gate: StageGate,
    flow_builder: Callable[[StreamContext, Chunk, Any], Flow],
    *,
    first_touch: bool = False,
    index: int = 0,
):
    """Generic stage worker: get → (reschedule) → flow → record → put."""
    meters = ctx.meter(kind)
    processed = 0
    try:
        while True:
            chunk = yield inq.get()
            if chunk is END:
                break
            delay, redo = _fault_plan(ctx, kind.value, index, processed)
            processed += 1
            for fault_kind in redo:
                # Wasted pass: the work lost to the crash/drop.
                core = home.next_chunk()
                yield ctx.network.run(flow_builder(ctx, chunk, core))
                _record_recovery(ctx, fault_kind)
            if delay > 0.0:
                yield ctx.engine.timeout(delay)
            core = home.next_chunk()
            flow = flow_builder(ctx, chunk, core)
            t0 = ctx.engine.now
            yield ctx.network.run(flow)
            if first_touch:
                chunk.home_socket = core.socket
            meters.record(ctx.engine.now, chunk, start=t0)
            if ctx.telemetry is not None:
                ctx.telemetry.record_span(
                    kind.value, t0, ctx.engine.now,
                    stream_id=chunk.stream_id, chunk_id=chunk.index,
                    track=str(core),
                )
                ctx.telemetry.record_chunk(
                    kind.value, chunk.stream_id, chunk.nbytes
                )
            if outq is not None:
                yield outq.put(chunk)
    finally:
        home.release()
        gate.worker_done()


def send_worker_proc(
    ctx: StreamContext,
    home: ThreadHome,
    inq: Store,
    sockq: Store,
    gate: StageGate,
    *,
    index: int = 0,
):
    """Send thread for one TCP connection: compressed queue → socket buffer."""
    meters = ctx.meter(StageKind.SEND)
    processed = 0
    try:
        while True:
            chunk = yield inq.get()
            if chunk is END:
                sockq.force_put(END)
                break
            delay, redo = _fault_plan(ctx, "send", index, processed)
            processed += 1
            for fault_kind in redo:
                # Wasted pass: the transfer lost with the connection.
                core = home.next_chunk()
                yield ctx.network.run(send_flow(ctx, chunk, core))
                _record_recovery(ctx, fault_kind)
            if delay > 0.0:
                yield ctx.engine.timeout(delay)
            core = home.next_chunk()
            t0 = ctx.engine.now
            yield ctx.network.run(send_flow(ctx, chunk, core))
            chunk.home_socket = core.socket  # kernel buffer, first touch
            meters.record(ctx.engine.now, chunk, start=t0)
            if ctx.telemetry is not None:
                ctx.telemetry.record_span(
                    "send", t0, ctx.engine.now,
                    stream_id=chunk.stream_id, chunk_id=chunk.index,
                    track=str(core),
                )
                ctx.telemetry.record_chunk(
                    "send", chunk.stream_id, chunk.nbytes
                )
            yield sockq.put(chunk)
    finally:
        home.release()
        gate.worker_done()


def wire_pump_proc(
    ctx: StreamContext,
    connection: int,
    sockq: Store,
    arrq: Store,
    send_socket_of: Callable[[], int],
):
    """One TCP connection: drains the socket buffer across the wire."""
    wire = ctx.meter(_WIRE_KIND)
    while True:
        chunk = yield sockq.get()
        if chunk is END:
            arrq.force_put(END)
            break
        flow = wire_flow(ctx, chunk, connection, send_socket_of())
        t0 = ctx.engine.now
        yield ctx.network.run(flow)
        chunk.home_socket = ctx.receiver_nic.socket  # DMA target
        wire.record(ctx.engine.now, chunk, start=t0)
        if ctx.telemetry is not None:
            ctx.telemetry.record_span(
                "wire", t0, ctx.engine.now,
                stream_id=chunk.stream_id, chunk_id=chunk.index,
            )
            ctx.telemetry.record_chunk("wire", chunk.stream_id, chunk.nbytes)
            # The simulated hop is both ends of the transport at once.
            ctx.telemetry.record_frame("tx", chunk.wire_bytes)
            ctx.telemetry.record_frame("rx", chunk.wire_bytes)
        yield arrq.put(chunk)


class _WireKind:
    """Pseudo stage key for wire-level throughput accounting."""

    value = "wire"
    sender_side = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<wire>"


_WIRE_KIND = _WireKind()
WIRE = _WIRE_KIND
