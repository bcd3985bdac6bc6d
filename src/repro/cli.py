"""Command-line entry points.

``repro-experiment`` regenerates paper exhibits::

    repro-experiment fig12            # one exhibit
    repro-experiment all --quick      # whole evaluation, reduced sweeps

``repro-live`` runs the real-thread pipeline on this host::

    repro-live --chunks 12 --codec zlib --connections 2
    repro-live --chunks 12 --trace-out trace.json   # Chrome/Perfetto trace
    repro-live --chunks 24 --fault drop:at=5 --fault corrupt:at=11
    repro-live --connect host:9000 --fault drop:at=5 --json-out out.json

``repro-plan`` / ``repro-run`` are the paper's Figure-4 workflow: the
pass-based planner writes a substrate-neutral plan file (format v3);
either runtime executes it::

    repro-plan generate --stream det1:updraft1:lynxdtn:aps-lan -o plan.json
    repro-plan explain plan.json        # placements + §3 rationale
    repro-plan diff plan.json --substrates   # sim-vs-live parity check
    repro-plan diff a.json b.json            # plan-vs-plan drift
    repro-plan lower plan.json --target live # affinity + thread counts
    repro-run plan.json                      # v1/v2/v3 all load
    repro-run --plan plan.json --trace-out trace.json
    repro-live --plan plan.json --chunks 12

(The original no-subcommand form ``repro-plan --stream ... -o out``
still works and means ``generate``.)

``repro-telemetry`` exercises the unified observability layer on either
substrate and dumps/exports what it collected::

    repro-telemetry dump --substrate live --format prom
    repro-telemetry export --substrate sim -o trace.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS, get_experiment


def experiment_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate the paper's figures/tables on the simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="exhibit id (fig5, fig8, ...) or 'all'",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced sweeps, single repetitions"
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed: list[str] = []
    results = {}
    for name in names:
        run = get_experiment(name)
        t0 = time.time()
        result = run(quick=args.quick, seed=args.seed)
        results[name] = result
        print(result.render())
        print(f"[{name}: {time.time() - t0:.1f}s]")
        print()
        if not result.all_claims_hold():
            failed.append(name)
    if args.experiment == "all":
        from repro.experiments.summary import render_summary

        print(render_summary(results))
    if failed:
        print(f"FAILED claims in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def live_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description="Run the live (real threads + sockets) pipeline: "
        "in-process by default, or as a TCP endpoint with "
        "--listen / --connect (run the receiver first).",
    )
    parser.add_argument("--chunks", type=int, default=12)
    parser.add_argument(
        "--codec",
        default=None,
        metavar="SPEC",
        help="codec spec: a name, preset, or 'name:k=v,...' string "
        "(e.g. zlib:level=1, bz2, adaptive:allowed=zlib|null) "
        "(default: the plan's codec policy, else zlib)",
    )
    parser.add_argument("--compress-threads", type=int, default=2)
    parser.add_argument("--decompress-threads", type=int, default=2)
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument(
        "--receiver-shards",
        type=int,
        default=None,
        metavar="N",
        help="reactor shards of the receiver's event-loop plane; 0 = one "
        "per core (default: the plan's execution policy, else 0)",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default=None,
        help="execution mode for the in-process loopback: 'thread' "
        "(default) keeps one GIL-bound process; 'process' runs one "
        "compressor process per NUMA domain over shared-memory rings "
        "(default: the plan's execution mode, else thread; see "
        "docs/multiprocess.md)",
    )
    parser.add_argument(
        "--domains",
        type=int,
        default=None,
        help="compressor domains with --mode process "
        "(default: one per compress thread)",
    )
    parser.add_argument(
        "--batch-frames",
        type=int,
        default=None,
        help="frames coalesced per queue drain / vectored send "
        "(default: the plan's batch_frames, else 1)",
    )
    parser.add_argument(
        "--batch-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="extra time a sender waits to top a partial batch up "
        "before flushing (default 0)",
    )
    parser.add_argument(
        "--detector",
        default="240x256",
        help="detector shape ROWSxCOLS (small by default: pure-Python codecs)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        help="run as the receiving endpoint (the upstream gateway)",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="run as the sending endpoint against a --listen receiver",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="collect telemetry and write a Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="flow tracing: head-sample every Nth chunk per stream at "
        "the feeder and follow it across threads, processes, and the "
        "wire (see docs/tracing.md; the plan's trace node can set this "
        "too)",
    )
    parser.add_argument(
        "--trace-cap",
        type=int,
        default=None,
        metavar="N",
        help="with --trace-sample: stop starting new traces for a "
        "stream after N (bounds trace volume on long runs)",
    )
    parser.add_argument(
        "--flow-out",
        metavar="PATH",
        help="write a Chrome trace with flow-event arrows linking each "
        "sampled chunk's spans across threads (implies tracing "
        "telemetry; best with --trace-sample)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="collect telemetry and write Prometheus text exposition",
    )
    parser.add_argument(
        "--fault",
        action="append",
        default=[],
        metavar="KIND[:k=v,...]",
        help="inject a sender-side transport fault (chaos testing); "
        "repeatable. Kinds: corrupt, truncate, drop, delay. Keys: "
        "at=<frame>, conn=<connection>, delay=<s>, count=<n>. "
        "Example: drop:at=5",
    )
    parser.add_argument(
        "--obs-port",
        type=int,
        metavar="PORT",
        help="serve /metrics /healthz /report /events on 127.0.0.1:PORT "
        "while the pipeline runs (0 = ephemeral; watch with repro-top)",
    )
    parser.add_argument(
        "--autotune",
        action="store_true",
        help="run the closed-loop controller: watchdog signals become "
        "plan deltas (scale workers, respawn a stage, retune "
        "batch_frames) applied to the running pipeline without restart "
        "(see docs/autotuning.md)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="write every structured event (lifecycle, retries, faults, "
        "watchdog alerts) to PATH as JSON lines",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the stage-attributed sampling profiler and fold "
        "per-stage self-time into the pipeline report",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="with --profile: also write collapsed-stack flamegraph text",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the run result as JSON (shared result envelope)",
    )
    parser.add_argument(
        "--plan",
        metavar="PATH",
        help="take thread counts, connections, and CPU affinity from a "
        "plan file (v1/v2/v3) via the planner's live lowering",
    )
    parser.add_argument(
        "--stream",
        metavar="ID",
        help="stream id within --plan (required for multi-stream plans)",
    )
    parser.add_argument(
        "--host-cpus",
        type=int,
        default=None,
        help="host CPU count for the --plan affinity folding "
        "(default: this host's)",
    )
    args = parser.parse_args(argv)
    if args.listen and args.connect:
        parser.error("--listen and --connect are mutually exclusive")
    if args.stream and not args.plan:
        parser.error("--stream only makes sense with --plan")
    if args.mode == "process" and (args.listen or args.connect):
        parser.error("--mode process runs the in-process loopback; "
                     "it cannot combine with --listen / --connect")
    if args.mode == "process" and args.fault:
        parser.error("--fault drives the resilient TCP endpoints; "
                     "process-mode fault testing lives in the chaos suite")
    if args.domains is not None and args.domains < 1:
        parser.error("--domains must be >= 1")
    if args.autotune and (args.listen or args.connect):
        parser.error("--autotune drives the in-process pipelines; the "
                     "remote endpoints have no reconfiguration surface yet")
    if args.autotune and args.fault:
        parser.error("--fault runs over the remote endpoints, which "
                     "--autotune does not drive yet")

    lowered = None
    plan_obj = None
    if args.plan:
        from repro.plan.passes import build_live
        from repro.plan.serialize import load_plan

        plan_obj = load_plan(args.plan)
        lowered = build_live(
            plan_obj,
            args.stream,
            codec=args.codec,
            host_cpus=args.host_cpus,
        )
        args.compress_threads = lowered.config.compress_threads
        args.decompress_threads = lowered.config.decompress_threads
        args.connections = lowered.config.connections
        print(
            f"plan {args.plan}: stream {lowered.stream_id!r} -> "
            f"compress={args.compress_threads} "
            f"decompress={args.decompress_threads} "
            f"connections={args.connections} "
            f"codec={lowered.config.codec}"
        )
    if args.listen and args.fault:
        parser.error("--fault is sender-side; use it with --connect or "
                     "the in-process loopback, not --listen")

    def setting(flag: str, field: str, default):
        """A flag overrides the plan's lowered value; with neither,
        ``default`` (the no-plan behaviour) applies."""
        value = getattr(args, flag)
        if value is not None:
            return value
        if lowered is not None:
            return getattr(lowered.config, field)
        return default

    codec = setting("codec", "codec", "zlib")
    mode = setting("mode", "execution_mode", "thread")
    batch_frames = setting("batch_frames", "batch_frames", 1)
    receiver_shards = setting("receiver_shards", "receiver_shards", 0)
    trace_sample = setting("trace_sample", "trace_sample", 0)
    trace_cap = setting("trace_cap", "trace_per_stream_cap", 0)
    for flag, value, minimum in (
        ("--batch-frames", batch_frames, 1),
        ("--batch-linger", args.batch_linger, 0),
        ("--receiver-shards", receiver_shards, 0),
        ("--trace-sample", trace_sample, 0),
        ("--trace-cap", trace_cap, 0),
    ):
        if value < minimum:
            parser.error(f"{flag} must be >= {minimum}")
    if trace_cap and not trace_sample:
        parser.error("--trace-cap needs --trace-sample")
    if args.domains is not None and mode != "process":
        parser.error("--domains sizes the compressor processes; it needs "
                     "--mode process (or a plan whose execution mode is "
                     "process)")

    from repro.faults import FaultInjector, parse_fault
    from repro.util.errors import ValidationError

    try:
        fault_specs = [parse_fault(text) for text in args.fault]
    except ValidationError as exc:
        parser.error(str(exc))

    if args.profile_out and not args.profile:
        parser.error("--profile-out needs --profile")

    # The plan's ControlNode can turn the loop on without the flag.
    autotune = args.autotune or (
        plan_obj is not None and plan_obj.control.enabled
    )
    wants_obs = (
        args.obs_port is not None
        or args.events_out
        or args.profile
        or autotune
    )
    telemetry = None
    if (
        args.trace_out
        or args.flow_out
        or args.metrics_out
        or fault_specs
        or wants_obs
        or trace_sample
    ):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    injector = (
        FaultInjector(fault_specs, telemetry=telemetry)
        if fault_specs
        else None
    )

    # The observability plane: event stream, watchdog, profiler, HTTP
    # endpoints — all optional, all reading the shared Telemetry.
    obs: dict = {}
    if telemetry is not None and wants_obs:
        from repro.obs import (
            EventBus,
            ObservabilityServer,
            SamplingProfiler,
            Watchdog,
        )
        from repro.util.log import attach_event_bus

        if args.obs_port is not None or args.events_out or autotune:
            bus = EventBus(source="live", jsonl_path=args.events_out)
            telemetry.attach_events(bus)
            obs["bus"] = bus
            obs["log_handler"] = attach_event_bus(bus)
            obs["watchdog"] = Watchdog(telemetry).start()
        if autotune:
            from repro.control import Controller
            from repro.plan.ir import ControlNode

            node = (
                plan_obj.control
                if plan_obj is not None and not plan_obj.control.is_default
                else ControlNode(enabled=True)
            )
            # The pipeline starts/stops the controller around its run.
            obs["controller"] = Controller(
                telemetry, node, plan=plan_obj
            )
            print("autotune: controller armed "
                  f"(interval={node.interval:g}s cooldown={node.cooldown:g}s "
                  f"max_workers={node.max_workers})")
        if args.profile:
            obs["profiler"] = SamplingProfiler().start()
        if args.obs_port is not None:
            server = ObservabilityServer(
                telemetry,
                port=args.obs_port,
                events=obs.get("bus"),
                profiler=obs.get("profiler"),
            ).start()
            obs["server"] = server
            print(f"observability endpoints at {server.url} "
                  "(/metrics /healthz /report /events /trace)")

    def write_json(report) -> None:
        if args.json_out:
            from repro.core.results import write_result_json

            write_result_json(report, args.json_out)
            print(f"wrote result to {args.json_out}")

    def finish_obs() -> None:
        watchdog = obs.get("watchdog")
        if watchdog is not None:
            watchdog.stop()
        profiler = obs.get("profiler")
        if profiler is not None:
            profiler.stop()
            print(profiler.render())
            if args.profile_out:
                with open(args.profile_out, "w", encoding="utf-8") as fh:
                    fh.write(profiler.collapsed())
                    fh.write("\n")
                print(f"wrote collapsed stacks to {args.profile_out}")
        server = obs.get("server")
        if server is not None:
            server.mark_finished()
            server.stop()
        handler = obs.get("log_handler")
        if handler is not None:
            from repro.util.log import detach_event_bus

            detach_event_bus(handler)
        bus = obs.get("bus")
        if bus is not None:
            bus.close()
            if args.events_out:
                print(f"wrote {bus.emitted} events to {args.events_out}")

    def finish_telemetry() -> None:
        finish_obs()
        if telemetry is None:
            return
        if args.trace_out:
            n = telemetry.write_chrome_trace(args.trace_out)
            print(f"wrote {n} trace events to {args.trace_out}")
        if args.flow_out:
            from repro.trace import write_flow_trace

            n = write_flow_trace(telemetry.spans.snapshot(), args.flow_out)
            print(f"wrote {n} flow-trace events to {args.flow_out}")
        if trace_sample:
            from repro.trace import assemble

            traces = assemble(telemetry.spans.snapshot())
            n = sum(1 for t in traces if "wire" in t.stage_order())
            print(f"flow tracing: {n} traced chunk journey(s) assembled "
                  f"(1-in-{trace_sample} head sampling)")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(telemetry.prometheus_text())
            print(f"wrote metrics to {args.metrics_out}")
        report = telemetry.pipeline_report()
        profiler = obs.get("profiler")
        if profiler is not None:
            report.profile = profiler.stage_self_seconds()
        if report.stages:
            print(report.render())

    from repro.data import SpheresDataset, SpheresPhantom
    from repro.data.chunking import DatasetChunkSource

    rows, cols = (int(x) for x in args.detector.lower().split("x"))

    def make_source():
        dataset = SpheresDataset(
            SpheresPhantom(
                cylinder_radius=300,
                cylinder_height=240,
                volume_fraction=0.2,
                seed=args.seed,
            ),
            detector_shape=(rows, cols),
            num_projections=max(args.chunks, 1),
            seed=args.seed,
        )
        return DatasetChunkSource("live", dataset, limit=args.chunks).chunks()

    def make_receiver(host: str, port: int):
        from repro.live.remote import ReceiverServer

        return ReceiverServer(
            host,
            port,
            codec=codec,
            connections=args.connections,
            decompress_threads=args.decompress_threads,
            batch_frames=batch_frames,
            shards=receiver_shards,
            telemetry=telemetry,
        )

    def make_sender(host: str, port: int):
        from repro.live.remote import SenderClient

        return SenderClient(
            host,
            port,
            codec=codec,
            connections=args.connections,
            compress_threads=args.compress_threads,
            batch_frames=batch_frames,
            batch_linger=args.batch_linger,
            telemetry=telemetry,
            injector=injector,
            trace_sample=trace_sample,
            trace_per_stream_cap=trace_cap,
        )

    if args.listen or args.connect:
        host, port = (args.listen or args.connect).rsplit(":", 1)
        if args.listen:
            server = make_receiver(host or "0.0.0.0", int(port))
            print(f"listening on {server.address[0]}:{server.address[1]} "
                  f"for {args.connections} connection(s) "
                  f"({server.shards} reactor shard(s))...")
            with server:
                report = server.serve()
        else:
            report = make_sender(host, int(port)).run(make_source())
        print(report.summary())
        finish_telemetry()
        write_json(report)
        return 0 if report.ok else 1

    if injector is not None:
        # Faults need the resilient TCP endpoints; run both over
        # loopback (the in-process socketpair pipeline has no recovery).
        import threading

        server = make_receiver("127.0.0.1", 0)
        box: dict = {}

        def serve() -> None:
            box["report"] = server.serve()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = make_sender(*server.address)
        sender_report = client.run(make_source())
        thread.join(client.timeouts.join)
        report = box.get("report")
        print(sender_report.summary())
        if report is not None:
            print(report.summary())
        if telemetry is not None:
            print(
                "resilience: retries="
                f"{telemetry.counter_value('transport_retries_total'):.0f} "
                "redeliveries="
                f"{telemetry.counter_value('transport_redeliveries_total'):.0f} "
                "rejected="
                f"{telemetry.counter_value('transport_frames_rejected_total'):.0f} "
                "deduped="
                f"{telemetry.counter_value('transport_frames_deduped_total'):.0f}"
            )
        finish_telemetry()
        write_json(sender_report)
        ok = sender_report.ok and report is not None and report.ok
        return 0 if ok else 1

    import dataclasses

    from repro.live import LiveConfig, LivePipeline

    # Flags override what the plan lowered; LivePipeline reads the
    # execution mode off the config.
    config = dataclasses.replace(
        lowered.config
        if lowered is not None
        else LiveConfig(
            codec=codec,
            compress_threads=args.compress_threads,
            decompress_threads=args.decompress_threads,
            connections=args.connections,
        ),
        batch_frames=batch_frames,
        batch_linger=args.batch_linger,
        trace_sample=trace_sample,
        trace_per_stream_cap=trace_cap,
        execution_mode=mode,
    )
    if mode == "process":
        if args.domains is not None:
            config = dataclasses.replace(config, process_domains=args.domains)
        domains = config.process_domains or config.compress_threads
        print(f"process mode: {domains} compressor domain(s) over "
              "shared-memory rings")
    controller = obs.get("controller")
    report = LivePipeline(
        config, telemetry=telemetry, controller=controller
    ).run(make_source())
    print(report.summary())
    if controller is not None:
        if controller.decisions:
            print("autotune decisions: " + "; ".join(controller.decisions))
        else:
            print("autotune: no re-plan needed")
    finish_telemetry()
    write_json(report)
    return 0 if report.ok else 1


def _codec_node_from_args(args, parser):
    """Build the plan's codec policy node from --codec/--codec-adaptive."""
    from repro.plan.ir import CodecNode
    from repro.util.errors import ValidationError

    if args.codec and args.codec_adaptive:
        parser.error("--codec and --codec-adaptive are mutually exclusive")
    if args.probe_interval and not args.codec_adaptive:
        parser.error("--probe-interval needs --codec-adaptive")
    try:
        if args.codec:
            node = CodecNode.from_spec(args.codec)
        elif args.codec_adaptive:
            node = CodecNode(
                name="adaptive",
                allowed=tuple(
                    x for x in args.codec_adaptive.split(",") if x
                ),
                probe_interval=args.probe_interval,
            )
        else:
            return None
        node.spec().create()  # fail fast, before the plan is written
    except ValidationError as exc:
        parser.error(str(exc))
    return node


def _plan_generate(args, parser) -> int:
    from repro.core.generator import ConfigGenerator, StreamRequest, Workload
    from repro.core.serialize import save_scenario
    from repro.experiments.base import paper_testbed
    from repro.plan.lower import lower_sim
    from repro.plan.passes import run_passes
    from repro.plan.serialize import save_plan

    requests = []
    for spec in args.stream:
        parts = spec.split(":")
        if len(parts) != 4:
            parser.error(f"bad --stream {spec!r}: want ID:SENDER:RECEIVER:PATH")
        sid, sender, receiver, path = parts
        requests.append(
            StreamRequest(sid, sender, receiver, path, num_chunks=args.chunks)
        )
    generator = ConfigGenerator(paper_testbed())
    workload = Workload(requests, name="cli", seed=args.seed)
    plan = (
        generator.os_baseline_plan(workload)
        if args.os_baseline
        else generator.generate_plan(workload)
    )
    if args.batch_frames != 1:
        from dataclasses import replace as _replace

        plan = _replace(
            plan,
            streams=tuple(
                _replace(s, batch_frames=args.batch_frames)
                for s in plan.streams
            ),
        )
    codec_node = _codec_node_from_args(args, parser)
    if codec_node is not None:
        from dataclasses import replace as _replace

        plan = _replace(plan, codec=codec_node)
    result = run_passes(plan)
    for warning in result.diagnostics.warnings:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.scenario:
        save_scenario(lower_sim(result.plan), args.output)
    else:
        save_plan(result.plan, args.output)
    print(f"wrote {plan.name!r} ({len(plan.streams)} streams) "
          f"to {args.output}")
    return 0


def _plan_explain(args) -> int:
    from repro.plan.explain import explain_plan
    from repro.plan.passes import run_passes
    from repro.plan.serialize import load_plan

    plan = load_plan(args.plan)
    result = run_passes(plan, strict=False)
    print(explain_plan(result.plan))
    if result.diagnostics:
        print()
        print(result.diagnostics.render())
    return 0 if result.ok else 1


def _plan_diff(args, parser) -> int:
    from repro.plan.diff import diff_plans, substrate_drift
    from repro.plan.serialize import load_plan

    plan = load_plan(args.plan)
    if args.substrates:
        if args.other is not None:
            parser.error("--substrates compares one plan's two lowerings; "
                         "drop the second plan argument")
        if args.format == "json":
            parser.error("--format json is the structured plan-vs-plan "
                         "delta; --substrates reports placement drift")
        drift = substrate_drift(plan, host_cpus=args.host_cpus)
        if drift:
            print("\n".join(drift))
            return 1
        print(f"plan {plan.name!r}: sim and live lowerings agree "
              "(0 placement drift)")
        return 0
    if args.other is None:
        parser.error("diff needs a second plan (or --substrates)")
    other = load_plan(args.other)
    if args.format == "json":
        # The same delta schema the autotuning controller emits on
        # replan_* events (repro.plan.delta) — machine-checkable drift.
        import json

        from repro.plan.delta import delta_to_dict, plan_delta

        delta = plan_delta(
            plan, other, reason=f"diff {args.plan} -> {args.other}"
        )
        print(json.dumps(delta_to_dict(delta), indent=2, sort_keys=True))
        return 1 if delta else 0
    drift = diff_plans(plan, other)
    if drift:
        print("\n".join(drift))
        return 1
    print("plans are identical")
    return 0


def _plan_lower(args) -> int:
    import json

    from repro.plan.passes import build_live, build_scenario
    from repro.plan.serialize import load_plan

    plan = load_plan(args.plan)
    if args.target == "sim":
        from repro.core.serialize import save_scenario, scenario_to_json

        scenario = build_scenario(plan)
        if args.output:
            save_scenario(scenario, args.output)
            print(f"wrote scenario {scenario.name!r} to {args.output}")
        else:
            print(scenario_to_json(scenario))
        return 0
    lowered = build_live(plan, args.stream, host_cpus=args.host_cpus)
    doc = {
        "stream_id": lowered.stream_id,
        "codec": lowered.config.codec,
        "compress_threads": lowered.config.compress_threads,
        "decompress_threads": lowered.config.decompress_threads,
        "connections": lowered.config.connections,
        "queue_capacity": lowered.config.queue_capacity,
        "batch_frames": lowered.config.batch_frames,
        "affinity": lowered.affinity,
        "stage_counts": lowered.stage_counts,
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        print(f"wrote live lowering of {lowered.stream_id!r} to {args.output}")
    else:
        print(text)
    return 0


def plan_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description="The pass-based planner (Figure 4): generate a "
        "substrate-neutral pipeline plan, explain its placements, diff "
        "two plans or one plan's two lowerings, or lower it by hand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        help="plan a workload and write a plan file (format v3)",
    )
    generate.add_argument(
        "--stream",
        action="append",
        required=True,
        metavar="ID:SENDER:RECEIVER:PATH",
        help="stream spec; repeatable. Machines: lynxdtn, updraft1/2, "
        "polaris1/2. Paths: aps-lan, alcf-aps.",
    )
    generate.add_argument("--chunks", type=int, default=250)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--batch-frames",
        type=int,
        default=1,
        help="frames coalesced per queue handoff / vectored send — a "
        "plan policy knob lowered to both substrates (default 1)",
    )
    generate.add_argument(
        "--codec",
        default=None,
        metavar="SPEC",
        help="static codec policy for the plan: a name, preset, or "
        "'name:k=v,...' spec string (e.g. zlib:level=1, bz2); "
        "omitted = the default (zlib), which keeps plan files "
        "byte-identical to pre-codec-policy writers",
    )
    generate.add_argument(
        "--codec-adaptive",
        default=None,
        metavar="POOL",
        help="adaptive codec policy: comma-separated candidate codecs "
        "the per-chunk selector may choose among (e.g. zlib,null)",
    )
    generate.add_argument(
        "--probe-interval",
        type=int,
        default=0,
        metavar="N",
        help="with --codec-adaptive: re-probe every N chunks per "
        "entropy band (0 = the codec's default)",
    )
    generate.add_argument(
        "--os-baseline",
        action="store_true",
        help="emit the OS-placement baseline instead of the NUMA-aware plan",
    )
    generate.add_argument(
        "--scenario",
        action="store_true",
        help="write the lowered v2 scenario instead of the v3 plan",
    )
    generate.add_argument("-o", "--output", required=True)

    explain = sub.add_parser(
        "explain",
        help="print a plan with the §3 rationale behind every placement",
    )
    explain.add_argument("plan", help="plan or scenario file (v1/v2/v3)")

    diff = sub.add_parser(
        "diff",
        help="report drift between two plans, or between one plan's "
        "sim and live lowerings (--substrates)",
    )
    diff.add_argument("plan", help="plan or scenario file (v1/v2/v3)")
    diff.add_argument("other", nargs="?", help="second plan to compare")
    diff.add_argument(
        "--substrates",
        action="store_true",
        help="check sim-vs-live lowering parity instead of plan-vs-plan",
    )
    diff.add_argument(
        "--host-cpus",
        type=int,
        default=64,
        help="host CPU count for the live affinity folding (default 64)",
    )
    diff.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="json = the structured PlanDelta document (ops + notes) "
        "the autotuning controller uses; exit 1 on a non-empty delta",
    )

    lower = sub.add_parser(
        "lower", help="lower a plan to one substrate's executable form"
    )
    lower.add_argument("plan", help="plan or scenario file (v1/v2/v3)")
    lower.add_argument(
        "--target", choices=["sim", "live"], required=True
    )
    lower.add_argument(
        "--stream",
        help="stream id for the live lowering (required for multi-stream "
        "plans)",
    )
    lower.add_argument(
        "--host-cpus",
        type=int,
        default=None,
        help="host CPU count for the live affinity folding "
        "(default: this host's)",
    )
    lower.add_argument("-o", "--output")

    # Compatibility: the original repro-plan took --stream/-o directly
    # (no subcommand) and meant "generate".
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0].startswith("-"):
        argv = ["generate", *argv]

    args = parser.parse_args(argv)
    if args.command == "generate":
        return _plan_generate(args, parser)
    if args.command == "explain":
        return _plan_explain(args)
    if args.command == "diff":
        return _plan_diff(args, parser)
    return _plan_lower(args)


def run_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Execute a scenario configuration file on the simulator.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="path to a repro-plan JSON file (scenario v1/v2 or plan v3)",
    )
    parser.add_argument(
        "--plan",
        metavar="PATH",
        help="load the file as a pipeline plan and run it through the "
        "planner's passes and sim lowering (accepts v1/v2/v3)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="collect telemetry on the virtual clock and write a Chrome "
        "trace_event JSON of every simulated stage span",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="collect telemetry and write Prometheus text exposition",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="write the run result as JSON (shared result envelope)",
    )
    parser.add_argument(
        "--obs-port",
        type=int,
        metavar="PORT",
        help="serve /metrics /healthz /report /events on 127.0.0.1:PORT "
        "while the scenario runs (0 = ephemeral)",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="write structured events (lifecycle, faults, virtual-clock "
        "watchdog alerts) to PATH as JSON lines",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample the simulator process itself (one thread: profiles "
        "the engine, not the modeled stages)",
    )
    parser.add_argument(
        "--autotune",
        action="store_true",
        help="run the closed-loop controller on the virtual clock: "
        "watchdog signals become plan deltas applied to the simulated "
        "pipeline mid-run — deterministic under the scenario seed "
        "(see docs/autotuning.md)",
    )
    args = parser.parse_args(argv)

    from repro.core.runtime import SimRuntime, run_scenario
    from repro.core.serialize import load_scenario
    from repro.util.tables import Table

    if bool(args.scenario) == bool(args.plan):
        parser.error("pass a scenario file or --plan PATH (not both)")
    plan_obj = None
    if args.plan:
        from repro.plan.passes import build_scenario
        from repro.plan.serialize import load_plan

        plan_obj = load_plan(args.plan)
        scenario = build_scenario(plan_obj)
    else:
        scenario = load_scenario(args.scenario)
    autotune = args.autotune or (
        plan_obj is not None and plan_obj.control.enabled
    )
    wants_obs = args.obs_port is not None or args.events_out or args.profile
    controller = None
    if args.trace_out or args.metrics_out or wants_obs or autotune:
        from repro.telemetry import Telemetry

        tel = Telemetry()
        obs: dict = {}
        watchdog_cfg = None
        if args.obs_port is not None or args.events_out or autotune:
            from repro.obs import EventBus, WatchdogConfig
            from repro.util.log import attach_event_bus

            bus = EventBus(source="sim", jsonl_path=args.events_out)
            tel.attach_events(bus)
            obs["bus"] = bus
            obs["log_handler"] = attach_event_bus(bus)
            # Coarser than the live defaults: these are *virtual*
            # seconds, and every bottleneck check walks the span store.
            watchdog_cfg = WatchdogConfig(
                interval=1.0, stall_after=5.0, backpressure_after=2.0,
                bottleneck_every=10,
            )
        if autotune:
            from repro.control import Controller
            from repro.plan.ir import ControlNode

            node = (
                plan_obj.control
                if plan_obj is not None and not plan_obj.control.is_default
                else ControlNode(enabled=True, interval=1.0, cooldown=2.0)
            )
            controller = Controller(tel, node, plan=plan_obj)
            print("autotune: controller armed on the virtual clock "
                  f"(interval={node.interval:g}s cooldown={node.cooldown:g}s)")
        runtime = SimRuntime(
            scenario, telemetry=tel, watchdog=watchdog_cfg,
            controller=controller,
        )
        if args.obs_port is not None:
            from repro.obs import ObservabilityServer

            server = ObservabilityServer(
                tel, port=args.obs_port, events=obs.get("bus")
            ).start()
            obs["server"] = server
            print(f"observability endpoints at {server.url} "
                  "(/metrics /healthz /report /events /trace)")
        if args.profile:
            from repro.obs import SamplingProfiler

            obs["profiler"] = SamplingProfiler().start()
        result = runtime.run()
        profiler = obs.get("profiler")
        if profiler is not None:
            profiler.stop()
            print(profiler.render())
        server = obs.get("server")
        if server is not None:
            server.mark_finished()
            server.stop()
        handler = obs.get("log_handler")
        if handler is not None:
            from repro.util.log import detach_event_bus

            detach_event_bus(handler)
        bus = obs.get("bus")
        if bus is not None:
            bus.close()
            if args.events_out:
                print(f"wrote {bus.emitted} events to {args.events_out}")
        if args.trace_out:
            n = tel.write_chrome_trace(args.trace_out)
            print(f"wrote {n} trace events to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(tel.prometheus_text())
            print(f"wrote metrics to {args.metrics_out}")
        if controller is not None:
            if controller.decisions:
                print("autotune decisions: "
                      + "; ".join(controller.decisions))
            else:
                print("autotune: no re-plan needed")
        for sid in sorted(result.streams):
            print(tel.pipeline_report(sid).render())
    else:
        result = run_scenario(scenario)
    table = Table(
        headers=["stream", "chunks", "network Gbps", "end-to-end Gbps"],
        title=f"scenario {result.name!r} ({result.sim_time:.2f}s simulated)",
    )
    for sid in sorted(result.streams):
        s = result.streams[sid]
        table.add(sid, s.chunks_delivered, round(s.wire_gbps, 2),
                  round(s.delivered_gbps, 2))
    table.add("TOTAL", "-", round(result.total_wire_gbps, 2),
              round(result.total_delivered_gbps, 2))
    print(table.render())
    if args.json_out:
        from repro.core.results import write_result_json

        write_result_json(result, args.json_out)
        print(f"wrote result to {args.json_out}")
    return 0


def _collect_telemetry(substrate: str, chunks: int, seed: int, codec: str):
    """Run a small canned pipeline on ``substrate``, return its Telemetry."""
    from repro.telemetry import Telemetry

    if substrate == "live":
        from repro.data import SpheresDataset, SpheresPhantom
        from repro.data.chunking import DatasetChunkSource
        from repro.live import LiveConfig, LivePipeline

        dataset = SpheresDataset(
            SpheresPhantom(
                cylinder_radius=300,
                cylinder_height=240,
                volume_fraction=0.2,
                seed=seed,
            ),
            detector_shape=(64, 64),
            num_projections=max(chunks, 1),
            seed=seed,
        )
        source = DatasetChunkSource("live", dataset, limit=chunks).chunks()
        telemetry = Telemetry()
        pipeline = LivePipeline(LiveConfig(codec=codec), telemetry=telemetry)
        report = pipeline.run(source)
        if not report.ok:
            raise SystemExit(f"live run failed: {'; '.join(report.errors)}")
        return telemetry

    from repro.core.generator import ConfigGenerator, StreamRequest, Workload
    from repro.core.runtime import SimRuntime
    from repro.experiments.base import paper_testbed

    workload = Workload(
        [
            StreamRequest(
                "det1", "updraft1", "lynxdtn", "aps-lan", num_chunks=chunks
            )
        ],
        name="telemetry-cli",
        seed=seed,
    )
    scenario = ConfigGenerator(paper_testbed()).generate(workload)
    runtime = SimRuntime(scenario, telemetry=True)
    runtime.run()
    return runtime.telemetry


def telemetry_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Exercise the unified telemetry layer: run a small "
        "pipeline on either substrate and dump metrics or export a trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--substrate",
            choices=["live", "sim"],
            default="live",
            help="real threads+sockets, or the virtual-clock simulator",
        )
        p.add_argument("--chunks", type=int, default=8)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--codec", default="zlib", help="live substrate codec")

    dump = sub.add_parser(
        "dump", help="print collected metrics and the pipeline report"
    )
    common(dump)
    dump.add_argument(
        "--format",
        choices=["prom", "json", "report"],
        default="report",
        help="prom = Prometheus text exposition, json = metric snapshot, "
        "report = per-stage service/queue-wait table",
    )

    export = sub.add_parser(
        "export", help="write the run's spans as Chrome trace_event JSON"
    )
    common(export)
    export.add_argument("-o", "--output", required=True, metavar="PATH")

    args = parser.parse_args(argv)
    telemetry = _collect_telemetry(
        args.substrate, args.chunks, args.seed, args.codec
    )

    if args.command == "dump":
        if args.format == "prom":
            print(telemetry.prometheus_text(), end="")
        elif args.format == "json":
            import json

            print(json.dumps(telemetry.json_snapshot(), indent=2))
        else:
            print(telemetry.pipeline_report().render())
        return 0

    n = telemetry.write_chrome_trace(args.output)
    print(f"wrote {n} trace events to {args.output}")
    print(telemetry.pipeline_report().render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(experiment_main())
