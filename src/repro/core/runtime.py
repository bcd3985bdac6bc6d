"""The simulated runtime system: build a scenario, run it, report.

:class:`SimRuntime` is the executable form of the paper's runtime
(Figure 4): it instantiates machines, network paths, per-stream pipelines
(dispatcher → ingest → compress → send ⇢ wire ⇢ recv → decompress) with
bounded queues, places every thread according to the scenario's
placement specs, runs the discrete-event simulation to completion and
returns a :class:`ScenarioResult` with per-stream and aggregate
throughputs plus per-core utilization / remote-access maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ScenarioConfig, StageKind, StreamConfig
from repro.core.placement import ThreadHome, resolve_placement
from repro.core.tasks import (
    END,
    StageGate,
    StreamContext,
    WIRE,
    compress_flow,
    decompress_flow,
    dispatcher_proc,
    egest_flow,
    ingest_flow,
    recv_flow,
    send_worker_proc,
    stage_worker_proc,
    wire_pump_proc,
)
from repro.data.chunking import SyntheticChunkSource
from repro.hw.machine import Machine
from repro.osmodel.scheduler import OsScheduler
from repro.sim.engine import Engine
from repro.sim.flows import FlowNetwork, Resource
from repro.sim.metrics import MetricsCollector
from repro.sim.queues import Store
from repro.telemetry import SimClock, as_telemetry
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.log import get_logger
from repro.util.rng import derive_seed
from repro.util.units import bytes_per_s_to_gbps

logger = get_logger("core.runtime")


@dataclass
class StreamResult:
    """Measured outcome of one stream.

    Implements the shared result protocol
    (:class:`repro.core.results.RunResult`): ``ok``, ``summary()``,
    ``to_dict()``.
    """

    stream_id: str
    chunks_delivered: int
    #: Uncompressed (end-to-end) goodput at the final stage, Gbps.
    delivered_gbps: float
    #: Wire (network) throughput, Gbps; 0 when the stream had no hop.
    wire_gbps: float
    #: Steady-state uncompressed-byte rates per stage, Gbps.
    stage_gbps: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.chunks_delivered > 0

    def summary(self) -> str:
        return (
            f"{self.stream_id}: chunks={self.chunks_delivered} "
            f"delivered={self.delivered_gbps:.2f}Gbps "
            f"wire={self.wire_gbps:.2f}Gbps"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "stream_id": self.stream_id,
            "ok": self.ok,
            "chunks_delivered": self.chunks_delivered,
            "delivered_gbps": self.delivered_gbps,
            "wire_gbps": self.wire_gbps,
            "stage_gbps": dict(self.stage_gbps),
        }


@dataclass
class ScenarioResult:
    """Aggregate outcome of a scenario run.

    Implements the shared result protocol
    (:class:`repro.core.results.RunResult`): ``ok``, ``summary()``,
    ``to_dict()``.
    """

    name: str
    sim_time: float
    streams: dict[str, StreamResult]
    #: Per-machine per-core utilization (fraction of the run busy).
    core_utilization: dict[str, dict[str, float]]
    #: Per-machine per-core normalized remote (QPI) traffic.
    remote_access: dict[str, dict[str, float]]
    #: Unified metrics/spans for the run (None when telemetry was off).
    telemetry: "object | None" = None

    @property
    def total_delivered_gbps(self) -> float:
        return sum(s.delivered_gbps for s in self.streams.values())

    @property
    def total_wire_gbps(self) -> float:
        return sum(s.wire_gbps for s in self.streams.values())

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.streams.values())

    def summary(self) -> str:
        lines = [
            f"{self.name}: sim_time={self.sim_time:.2f}s "
            f"total={self.total_delivered_gbps:.2f}Gbps "
            f"wire={self.total_wire_gbps:.2f}Gbps"
        ]
        for stream in self.streams.values():
            lines.append("  " + stream.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "sim_time": self.sim_time,
            "total_delivered_gbps": self.total_delivered_gbps,
            "total_wire_gbps": self.total_wire_gbps,
            "streams": {
                sid: s.to_dict() for sid, s in self.streams.items()
            },
            "core_utilization": self.core_utilization,
            "remote_access": self.remote_access,
        }


class SimRuntime:
    """Builds and runs one scenario on the fluid simulator.

    ``telemetry`` attaches the unified observability layer
    (:mod:`repro.telemetry`) on the *virtual* clock: pass ``True`` to
    build one internally, or an existing :class:`~repro.telemetry.Telemetry`
    to share (its clock is rebound to this runtime's engine).  With
    telemetry attached every stage records a span per chunk into the
    shared span store, so Chrome traces / pipeline reports work on
    simulated time exactly as they do on wall time.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        *,
        telemetry: "bool | object" = False,
        watchdog: "object | None" = None,
    ) -> None:
        scenario.validate()
        self.scenario = scenario
        self.engine = Engine()
        #: Watchdog config (:class:`repro.obs.WatchdogConfig`) to run on
        #: the virtual clock; requires telemetry.  The instance appears
        #: on :attr:`watchdog` once :meth:`run` starts.
        self.watchdog_config = watchdog
        self.watchdog = None
        if watchdog is not None and not telemetry:
            raise ConfigurationError(
                "SimRuntime(watchdog=...) requires telemetry"
            )
        self.network = FlowNetwork(self.engine)
        #: Unified metrics/span layer (None when disabled).
        self.telemetry = as_telemetry(telemetry)
        if self.telemetry is not None:
            self.telemetry.set_clock(SimClock(self.engine))
        self.metrics = MetricsCollector(
            self.engine,
            self.network,
            registry=self.telemetry.registry if self.telemetry else None,
        )
        self.machines: dict[str, Machine] = {
            name: Machine(self.engine, spec, csw_penalty=scenario.csw_penalty)
            for name, spec in scenario.machines.items()
        }
        self.schedulers: dict[str, OsScheduler] = {
            name: OsScheduler(
                spec,
                seed=derive_seed(scenario.seed, "sched", name),
                wake_affinity=scenario.wake_affinity,
                migrate_prob=scenario.migrate_prob,
                spill_threshold=scenario.spill_threshold,
            )
            for name, spec in scenario.machines.items()
        }
        self.path_resources: dict[str, Resource] = {
            name: Resource(f"path/{name}", spec.goodput_Bps, kind="path")
            for name, spec in scenario.paths.items()
        }
        self.stream_contexts: dict[str, StreamContext] = {}
        #: All inter-stage stores, for queue-occupancy reporting when
        #: telemetry is attached.
        self.queues: list[Store] = []
        self._done_events = []
        for stream in scenario.streams:
            self._build_stream(stream)
        logger.debug(
            "built scenario %r: %d machines, %d streams, %d queues",
            scenario.name, len(self.machines), len(scenario.streams),
            len(self.queues),
        )

    # -- construction -------------------------------------------------------

    def _build_stream(self, cfg: StreamConfig) -> None:
        sc = self.scenario
        sender = self.machines[cfg.sender]
        receiver = self.machines[cfg.receiver]
        has_hop = cfg.send is not None
        path_spec = sc.paths[cfg.path] if has_hop else _LOCAL_PATH
        ctx = StreamContext(
            engine=self.engine,
            network=self.network,
            cost=sc.cost,
            config=cfg,
            sender=sender,
            receiver=receiver,
            path_spec=path_spec,
            path_resource=(
                self.path_resources[cfg.path] if has_hop else _NULL_RESOURCE
            ),
            sender_nic=sender.nic() if has_hop else None,
            receiver_nic=receiver.nic() if has_hop else None,
            telemetry=self.telemetry,
        )
        self.stream_contexts[cfg.stream_id] = ctx
        if self.telemetry is not None:
            counts = {k.value: s.count for k, s in cfg.stages().items()}
            if cfg.send is not None:
                counts["wire"] = cfg.send.count  # one pump per connection
            self.telemetry.stream_thread_counts[cfg.stream_id] = counts
            self.telemetry.thread_counts.update(counts)

        source = SyntheticChunkSource(
            stream_id=cfg.stream_id,
            num_chunks=cfg.num_chunks,
            chunk_bytes=cfg.chunk_bytes,
            ratio_mean=cfg.ratio_mean,
            ratio_sigma=cfg.ratio_sigma,
            seed=derive_seed(sc.seed, "chunks", cfg.stream_id),
        ).chunks()

        done = self.engine.event()
        self._done_events.append(done)

        # Resolve placements for every present stage up-front (recv homes
        # must exist before wire pumps query them).
        homes: dict[StageKind, list[ThreadHome]] = {}
        for kind, stage in cfg.stages().items():
            machine = sender if kind.sender_side else receiver
            scheduler = self.schedulers[
                cfg.sender if kind.sender_side else cfg.receiver
            ]
            homes[kind] = resolve_placement(
                stage.placement,
                machine.spec,
                stage.count,
                scheduler,
                group=f"{cfg.stream_id}.{kind.value}",
            )
        if StageKind.RECV in homes:
            ctx.recv_homes = homes[StageKind.RECV]

        # Build the queue chain.  Shared-queue stages read one common
        # store; the send/wire/recv leg uses per-connection stores.
        cap = cfg.queue_capacity
        order = list(cfg.stages().keys())
        builders = {
            StageKind.INGEST: (ingest_flow, True),
            StageKind.COMPRESS: (compress_flow, True),
            StageKind.RECV: (recv_flow, True),
            StageKind.DECOMPRESS: (decompress_flow, False),
            StageKind.EGEST: (egest_flow, False),
        }

        monitor = self.telemetry is not None

        def make_store(capacity: int, name: str) -> Store:
            store = Store(self.engine, capacity=capacity, name=name,
                          monitor=monitor, telemetry=self.telemetry)
            self.queues.append(store)
            return store

        # Input queue of the first stage, fed by the dispatcher.
        first_q = make_store(cap, f"{cfg.stream_id}/q0")
        self.engine.process(
            dispatcher_proc(
                ctx, source, first_q, cfg.stages()[order[0]].count
            ),
            name=f"{cfg.stream_id}.dispatcher",
        )

        inq = first_q
        for pos, kind in enumerate(order):
            stage = cfg.stages()[kind]
            is_last = pos == len(order) - 1
            next_kind = order[pos + 1] if not is_last else None

            if kind == StageKind.SEND:
                # send workers + wire pumps + recv workers, paired per
                # TCP connection (§3.4: x senders, x receivers, x streams).
                recv_stage = cfg.stages()[StageKind.RECV]
                n = stage.count
                after_recv = order[order.index(StageKind.RECV) + 1 :]
                recv_outq: Store | None = None
                if after_recv:
                    recv_outq = make_store(cap, f"{cfg.stream_id}/q-recv")
                recv_gate = self._make_gate(
                    ctx,
                    recv_stage.count,
                    recv_outq,
                    cfg.stages()[after_recv[0]].count if after_recv else 0,
                    done if not after_recv else None,
                )
                for i in range(n):
                    sockq = make_store(2, f"{cfg.stream_id}/sock{i}")
                    arrq = make_store(2, f"{cfg.stream_id}/arr{i}")
                    s_home = homes[StageKind.SEND][i]
                    send_gate_noop = StageGate(1, lambda: None)
                    self.engine.process(
                        send_worker_proc(
                            ctx, s_home, inq, sockq, send_gate_noop, index=i
                        ),
                        name=f"{cfg.stream_id}.send.{i}",
                    )
                    self.engine.process(
                        wire_pump_proc(
                            ctx, i, sockq, arrq, lambda h=s_home: h.socket
                        ),
                        name=f"{cfg.stream_id}.wire.{i}",
                    )
                    self.engine.process(
                        stage_worker_proc(
                            ctx,
                            StageKind.RECV,
                            homes[StageKind.RECV][i],
                            arrq,
                            recv_outq,
                            recv_gate,
                            recv_flow,
                            first_touch=True,
                            index=i,
                        ),
                        name=f"{cfg.stream_id}.recv.{i}",
                    )
                inq = recv_outq
                continue
            if kind == StageKind.RECV:
                continue  # built alongside SEND

            flow_builder, first_touch = builders[kind]
            outq: Store | None = None
            next_count = 0
            if next_kind is not None:
                outq = make_store(cap, f"{cfg.stream_id}/q-{kind.value}")
                next_count = cfg.stages()[next_kind].count
            gate = self._make_gate(
                ctx,
                stage.count,
                outq,
                next_count,
                done if is_last else None,
            )
            for i in range(stage.count):
                self.engine.process(
                    stage_worker_proc(
                        ctx,
                        kind,
                        homes[kind][i],
                        inq,
                        outq,
                        gate,
                        flow_builder,
                        first_touch=first_touch,
                        index=i,
                    ),
                    name=f"{cfg.stream_id}.{kind.value}.{i}",
                )
            inq = outq

    def _make_gate(
        self,
        ctx: StreamContext,
        count: int,
        outq: Store | None,
        next_count: int,
        done_event,
    ) -> StageGate:
        def close() -> None:
            if outq is not None:
                for _ in range(next_count):
                    outq.force_put(END)
            if done_event is not None:
                done_event.trigger(ctx.config.stream_id)

        return StageGate(count, close)

    # -- inspection -------------------------------------------------------

    def queue_report(self) -> dict[str, dict[str, float]]:
        """Per-queue occupancy stats (needs telemetry).

        Returns {queue name: {"max": ..., "mean": ...}} where mean is
        time-weighted depth — the practical signal for sizing the
        paper's thread-safe queues.
        """
        out: dict[str, dict[str, float]] = {}
        for store in self.queues:
            series = store.depth_series
            if series is None or not len(series):
                continue
            out[store.name] = {
                "max": max(series.values),
                "mean": series.time_weighted_mean(),
            }
        return out

    # -- execution -----------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Run to completion and return measurements."""
        done = self.engine.all_of(self._done_events)
        horizon = self.scenario.max_sim_time
        if self.telemetry is not None:
            self.telemetry.emit_event(
                "run_start",
                f"scenario {self.scenario.name!r} starting",
                runner="SimRuntime",
                streams=len(self.scenario.streams),
            )
            if self.watchdog_config is not None:
                from repro.obs.watchdog import Watchdog

                self.watchdog = Watchdog(self.telemetry, self.watchdog_config)
                # Bounded by the horizon: an immortal watchdog process
                # would keep the heap non-empty and mask deadlocks.
                self.engine.process(
                    self.watchdog.sim_process(self.engine, until=horizon),
                    name="watchdog",
                )
        while not done.processed:
            if not self.engine._heap:
                raise SimulationError(
                    f"scenario {self.scenario.name!r}: deadlock — event heap "
                    "exhausted before all streams finished"
                )
            if self.engine.peek() > horizon:
                raise SimulationError(
                    f"scenario {self.scenario.name!r}: exceeded max_sim_time="
                    f"{horizon}s (simulated {self.engine.now:.1f}s)"
                )
            self.engine.step()
        logger.debug(
            "scenario %r drained at t=%.3fs", self.scenario.name,
            self.engine.now,
        )
        if self.telemetry is not None:
            self.telemetry.emit_event(
                "run_end",
                f"scenario {self.scenario.name!r} drained",
                runner="SimRuntime",
                ok=True,
                sim_time_s=round(self.engine.now, 6),
            )
        return self._report()

    def _report(self) -> ScenarioResult:
        warm = self.scenario.warmup_chunks
        streams: dict[str, StreamResult] = {}
        for cfg in self.scenario.streams:
            ctx = self.stream_contexts[cfg.stream_id]
            order = list(cfg.stages().keys())
            final_meter = ctx.meter(order[-1])
            stage_gbps = {
                kind.value: bytes_per_s_to_gbps(
                    ctx.meter(kind).steady_rate_Bps(warm)
                )
                for kind in order
            }
            wire_gbps = 0.0
            if cfg.send is not None:
                wire_gbps = bytes_per_s_to_gbps(
                    ctx.meter(WIRE).steady_rate_Bps(warm, wire=True)
                )
                stage_gbps["wire"] = wire_gbps
                # Wire-equivalent rate over the *delivery* window — the
                # clean denominator for "e2e = ratio x network" checks
                # (the raw wire meter includes the pipeline-fill
                # transient, which biases short runs).
                stage_gbps["delivered_wire"] = bytes_per_s_to_gbps(
                    final_meter.steady_rate_Bps(warm, wire=True)
                )
            streams[cfg.stream_id] = StreamResult(
                stream_id=cfg.stream_id,
                chunks_delivered=final_meter.chunks,
                delivered_gbps=bytes_per_s_to_gbps(
                    final_meter.steady_rate_Bps(warm)
                ),
                wire_gbps=wire_gbps,
                stage_gbps=stage_gbps,
            )
        core_util: dict[str, dict[str, float]] = {}
        remote: dict[str, dict[str, float]] = {}
        for name, machine in self.machines.items():
            names = machine.core_names()
            core_util[name] = self.metrics.core_utilization_map(names)
            remote[name] = self.metrics.remote_access_map(names)
        if self.telemetry is not None:
            self.metrics.publish_utilization()
            # Queue occupancy on the virtual clock: gauge value = the
            # time-weighted mean depth, high_water = the peak.
            for qname, stats in self.queue_report().items():
                gauge = self.telemetry.queue_gauge(qname)
                gauge.set(stats["max"])
                gauge.set(stats["mean"])
        return ScenarioResult(
            name=self.scenario.name,
            sim_time=self.engine.now,
            streams=streams,
            core_utilization=core_util,
            remote_access=remote,
            telemetry=self.telemetry,
        )


def run_scenario(
    scenario: ScenarioConfig, *, telemetry: "bool | object" = False
) -> ScenarioResult:
    """Convenience one-shot: build, run, report.

    ``telemetry`` follows the blessed shape (``docs/telemetry.md``):
    ``True`` builds a fresh :class:`~repro.telemetry.Telemetry` on the
    virtual clock, an instance is shared (clock rebound), ``False``
    disables collection.  The instance rides back on
    ``ScenarioResult.telemetry``.
    """
    return SimRuntime(scenario, telemetry=telemetry).run()


class _Local:
    """Placeholder path for streams without a network hop."""

    name = "local"
    per_stream_cap_gbps = None

    @staticmethod
    def stream_cap_Bps() -> None:
        return None


_LOCAL_PATH = _Local()
_NULL_RESOURCE = None
