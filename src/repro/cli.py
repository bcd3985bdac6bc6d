"""The ``repro`` command (also ``python -m repro``).

The paper's Figure-4 workflow is ``plan generate`` -> ``run`` (the
simulator) / ``live`` (real threads, processes, sockets); one plan
file (format v3; v1/v2 scenarios load too) drives either substrate::

    repro plan generate --stream det1:updraft1:lynxdtn:aps-lan -o plan.json
    repro plan explain plan.json          # placements + §3 rationale
    repro plan diff plan.json --substrates    # sim-vs-live parity check
    repro plan diff a.json b.json             # plan-vs-plan drift
    repro plan lower plan.json --target live  # affinity + thread counts
    repro run plan.json
    repro live --plan plan.json --chunks 12

``run`` and ``live`` take the same observation options
(``--trace-out --metrics-out --json-out --obs-port --events-out
--profile``); ``top`` watches an ``--obs-port``::

    repro live --chunks 12 --trace-out trace.json   # Chrome/Perfetto trace
    repro run plan.json --metrics-out metrics.prom
    repro live --chunks 1500 --obs-port 0 & repro top http://127.0.0.1:PORT

``live`` without a plan runs a small zlib loopback, in-process by
default or as a TCP endpoint::

    repro live --chunks 24 --fault drop:at=5 --fault corrupt:at=11
    repro live --connect host:9000 --fault drop:at=5 --json-out out.json

``experiment`` regenerates paper exhibits::

    repro experiment fig12            # one exhibit
    repro experiment all --quick      # whole evaluation, reduced sweeps
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from contextlib import contextmanager

from repro.experiments import EXPERIMENTS, get_experiment
from repro.obs.session import Observation, observe
from repro.obs.top import add_top_arguments, run_top
from repro.telemetry import Telemetry, assemble

def _add_observation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="collect telemetry and write a Chrome trace_event JSON of "
        "every stage span, with flow arrows along each chunk's journey "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="collect telemetry and write Prometheus text exposition",
    )
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the run result as JSON (shared result envelope)",
    )
    parser.add_argument(
        "--obs-port", type=int, metavar="PORT",
        help="serve /metrics /healthz /report /events /trace on "
        "127.0.0.1:PORT while the run is in progress (0 = ephemeral; "
        "watch with `repro top`)",
    )
    parser.add_argument(
        "--events-out", metavar="PATH",
        help="write every structured event (lifecycle, retries, faults, "
        "watchdog alerts) to PATH as JSON lines",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the stage-attributed sampling profiler and fold "
        "per-stage self-time into the pipeline report (on `run` it "
        "samples the simulator itself, not the modeled stages)",
    )


def _load_plan(path: str):
    """Read a plan or scenario file; one that does not load is one line
    on stderr and exit 1, not a traceback."""
    from repro.plan.serialize import load_plan
    from repro.util.errors import ReproError

    try:
        return load_plan(path)
    except ReproError as exc:
        print(f"repro: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _lower_plan(path: str, build, *args, **kwargs):
    """Lower a loaded plan with ``build`` (``build_scenario`` or
    ``build_live``); a plan that loads but fails validation is one line
    on stderr and exit 1, as in :func:`_load_plan`."""
    from repro.util.errors import ConfigurationError

    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        print(f"repro: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _telemetry_for(args: argparse.Namespace, *also):
    """A fresh Telemetry when an observation option (or anything in
    ``also``) reads one; None for an unobserved run."""
    if (
        args.trace_out
        or args.metrics_out
        or args.obs_port is not None
        or args.events_out
        or args.profile
        or any(also)
    ):
        return Telemetry()
    return None


@contextmanager
def _observed(telemetry, substrate: str, args):
    """The run's :func:`repro.obs.session.observe` session, announced.

    Without telemetry nothing observes and the handles are all None.
    """
    if telemetry is None:
        yield Observation()
        return
    with observe(
        telemetry,
        substrate,
        port=args.obs_port,
        events_out=args.events_out,
        profile=args.profile,
    ) as obs:
        if obs.server is not None:
            print(f"observability endpoints at {obs.server.url} "
                  "(/metrics /healthz /report /events /trace)")
        yield obs


def _write_observations(
    args, telemetry, obs, *, streams=(None,), trace_sample: int = 0
) -> None:
    """After the session closed: every artefact an option asked for,
    and one pipeline report per ``streams`` entry (None = the whole
    run)."""
    if obs.profiler is not None:
        print(obs.profiler.render())
        if args.profile_out:
            with open(args.profile_out, "w", encoding="utf-8") as fh:
                fh.write(obs.profiler.collapsed())
                fh.write("\n")
            print(f"wrote collapsed stacks to {args.profile_out}")
    if obs.bus is not None and args.events_out:
        print(f"wrote {obs.bus.emitted} events to {args.events_out}")
    if telemetry is not None:
        if args.trace_out:
            n = telemetry.write_chrome_trace(args.trace_out)
            print(f"wrote {n} trace events to {args.trace_out}")
        if trace_sample:
            traces = assemble(telemetry.spans.snapshot())
            n = sum(1 for t in traces if "wire" in t.stage_order())
            print(f"flow tracing: {n} traced chunk journey(s) assembled "
                  f"(1-in-{trace_sample} head sampling)")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(telemetry.prometheus_text())
            print(f"wrote metrics to {args.metrics_out}")
        for stream_id in streams:
            report = telemetry.pipeline_report(stream_id)
            if obs.profiler is not None:
                report.profile = obs.profiler.stage_self_seconds()
            if report.stages:
                print(report.render())


def _write_json(args, result) -> None:
    if args.json_out:
        from repro.core.results import write_result_json

        write_result_json(result, args.json_out)
        print(f"wrote result to {args.json_out}")


def _add_experiment(sub) -> None:
    parser = sub.add_parser(
        "experiment",
        help="regenerate a paper exhibit on the simulator",
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
    parser.set_defaults(handler=_experiment)


def _experiment(args) -> int:
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


# ---------------------------------------------------------------------------
# repro live
# ---------------------------------------------------------------------------

#: The sizing flags, by the LiveConfig field each one sets (its argparse
#: ``dest``).  Every one defaults to None: a flag that is given wins,
#: otherwise the plan, otherwise ``_LIVE_DEFAULTS``.
_LIVE_SIZING = (
    "codec", "compress_threads", "decompress_threads", "connections",
    "receiver_shards", "execution_mode", "process_domains",
    "trace_sample", "trace_per_stream_cap",
)
#: What `repro live` runs with no plan and no flags.
_LIVE_DEFAULTS = {"codec": "zlib", "connections": 2}


def _add_live(sub) -> None:
    parser = sub.add_parser(
        "live",
        help="run the pipeline on real threads, processes and sockets",
        description="Run the live (real threads + sockets) pipeline: "
        "in-process by default, or as a TCP endpoint with "
        "--listen / --connect (run the receiver first).",
    )
    parser.add_argument("--chunks", type=int, default=12)
    parser.add_argument(
        "--codec", metavar="SPEC",
        help="codec spec: a name or 'name:k=v,...' string "
        "(e.g. zlib:level=6, shuffle-lz4, null) "
        "(default: the plan's codec policy, else zlib)",
    )
    parser.add_argument(
        "--compress-threads", type=int, metavar="N",
        help="compress workers (default: the plan's, else 2)",
    )
    parser.add_argument(
        "--decompress-threads", type=int, metavar="N",
        help="decompress workers (default: the plan's, else 2)",
    )
    parser.add_argument(
        "--connections", type=int, metavar="N",
        help="sender/receiver connection pairs (default: the plan's, else 2)",
    )
    parser.add_argument(
        "--receiver-shards", type=int, metavar="N",
        help="reactor shards of the receiver's event-loop plane; 0 = one "
        "per core (default: the plan's execution policy, else 0)",
    )
    parser.add_argument(
        "--mode", dest="execution_mode", choices=("thread", "process"),
        help="execution mode for the in-process loopback: 'thread' "
        "keeps one GIL-bound process; 'process' runs one compressor "
        "process per NUMA domain over shared-memory rings (default: the "
        "plan's execution mode, else thread; see docs/multiprocess.md)",
    )
    parser.add_argument(
        "--domains", dest="process_domains", type=int, metavar="N",
        help="compressor domains with --mode process "
        "(default: one per compress thread)",
    )
    parser.add_argument(
        "--detector", default="240x256",
        help="detector shape ROWSxCOLS (small by default: pure-Python codecs)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--listen", metavar="HOST:PORT",
        help="run as the receiving endpoint (the upstream gateway)",
    )
    parser.add_argument(
        "--connect", metavar="HOST:PORT",
        help="run as the sending endpoint against a --listen receiver",
    )
    parser.add_argument(
        "--trace-sample", type=int, metavar="N",
        help="flow tracing: head-sample every Nth chunk per stream at "
        "the feeder and follow it across threads, processes, and the "
        "wire (see docs/tracing.md; the plan's trace node can set this "
        "too)",
    )
    parser.add_argument(
        "--trace-cap", dest="trace_per_stream_cap", type=int, metavar="N",
        help="with --trace-sample: stop starting new traces for a "
        "stream after N (bounds trace volume on long runs)",
    )
    parser.add_argument(
        "--fault", action="append", default=[], metavar="KIND[:k=v,...]",
        help="inject a sender-side transport fault (chaos testing); "
        "repeatable. Kinds: corrupt, truncate, drop, delay. Keys: "
        "at=<frame>, conn=<connection>, delay=<s>, count=<n>. "
        "Example: drop:at=5",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="with --profile: also write collapsed-stack flamegraph text",
    )
    parser.add_argument(
        "--plan", metavar="PATH",
        help="take thread counts, connections, and CPU affinity from a "
        "plan file (v1/v2/v3) via the planner's live lowering; sizing "
        "flags given alongside override it",
    )
    parser.add_argument(
        "--stream", metavar="ID",
        help="stream id within --plan (required for multi-stream plans)",
    )
    parser.add_argument(
        "--host-cpus", type=int,
        help="host CPU count for the --plan affinity folding "
        "(default: this host's)",
    )
    _add_observation_arguments(parser)
    parser.set_defaults(handler=_live, parser=parser)


def _live(args) -> int:
    from repro.compress.codec import resolve_codec
    from repro.faults import FaultInjector, parse_fault
    from repro.live import LiveConfig, LivePipeline
    from repro.util.errors import ValidationError

    parser = args.parser
    remote = args.listen or args.connect
    if args.listen and args.connect:
        parser.error("--listen and --connect are mutually exclusive")
    if args.stream and not args.plan:
        parser.error("--stream only makes sense with --plan")
    if args.execution_mode == "process" and remote:
        parser.error("--mode process runs the in-process loopback; "
                     "it cannot combine with --listen / --connect")
    if args.execution_mode == "process" and args.fault:
        parser.error("--fault drives the resilient TCP endpoints; "
                     "process-mode fault testing lives in the chaos suite")
    if args.process_domains is not None and args.process_domains < 1:
        parser.error("--domains must be >= 1")
    if args.listen and args.fault:
        parser.error("--fault is sender-side; use it with --connect or "
                     "the in-process loopback, not --listen")
    if args.profile_out and not args.profile:
        parser.error("--profile-out needs --profile")
    try:
        rows, cols = (int(x) for x in args.detector.lower().split("x"))
    except ValueError:
        parser.error(f"bad --detector {args.detector!r}: want ROWSxCOLS")
    try:
        fault_specs = [parse_fault(text) for text in args.fault]
    except ValidationError as exc:
        parser.error(str(exc))

    base = LiveConfig(**_LIVE_DEFAULTS)
    if args.plan:
        from repro.plan.passes import build_live

        lowered = _lower_plan(
            args.plan, build_live, _load_plan(args.plan), args.stream,
            host_cpus=args.host_cpus,
        )
        base = lowered.config
    given = {
        field: getattr(args, field)
        for field in _LIVE_SIZING
        if getattr(args, field) is not None
    }
    try:
        config = dataclasses.replace(base, **given)
        resolve_codec(config.codec)  # fail fast, before any worker starts
    except ValidationError as exc:
        parser.error(str(exc))
    if config.trace_per_stream_cap and not config.trace_sample:
        parser.error("--trace-cap needs --trace-sample")
    if args.process_domains and config.execution_mode != "process":
        parser.error("--domains sizes the compressor processes; it needs "
                     "--mode process (or a plan whose execution mode is "
                     "process)")
    if args.plan:
        print(
            f"plan {args.plan}: stream {lowered.stream_id!r} -> "
            f"compress={config.compress_threads} "
            f"decompress={config.decompress_threads} "
            f"connections={config.connections} "
            f"codec={config.codec}"
        )

    telemetry = _telemetry_for(args, fault_specs, config.trace_sample)
    injector = (
        FaultInjector(fault_specs, telemetry=telemetry)
        if fault_specs
        else None
    )

    def make_source():
        from repro.data import SpheresDataset, SpheresPhantom
        from repro.data.chunking import DatasetChunkSource

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
            codec=config.codec,
            connections=config.connections,
            decompress_threads=config.decompress_threads,
            shards=config.receiver_shards,
            telemetry=telemetry,
        )

    def make_sender(host: str, port: int):
        from repro.live.remote import SenderClient

        return SenderClient(
            host,
            port,
            codec=config.codec,
            connections=config.connections,
            compress_threads=config.compress_threads,
            telemetry=telemetry,
            injector=injector,
            trace_sample=config.trace_sample,
            trace_per_stream_cap=config.trace_per_stream_cap,
        )

    with _observed(telemetry, "live", args) as obs:
        if remote:
            host, port = remote.rsplit(":", 1)
            if args.listen:
                server = make_receiver(host or "0.0.0.0", int(port))
                print(f"listening on {server.address[0]}:{server.address[1]} "
                      f"for {config.connections} connection(s) "
                      f"({server.shards} reactor shard(s))...")
                with server:
                    report = server.serve()
            else:
                report = make_sender(host, int(port)).run(make_source())
            print(report.summary())
            ok = report.ok
        elif injector is not None:
            # Faults need the resilient TCP endpoints; run both over
            # loopback (the in-process socketpair pipeline has no
            # recovery).
            import threading

            server = make_receiver("127.0.0.1", 0)
            box: dict = {}
            thread = threading.Thread(
                target=lambda: box.update(report=server.serve()), daemon=True
            )
            thread.start()
            client = make_sender(*server.address)
            report = client.run(make_source())
            thread.join(client.timeouts.join)
            received = box.get("report")
            print(report.summary())
            if received is not None:
                print(received.summary())
            counter = telemetry.counter_value
            print(
                "resilience: retries="
                f"{counter('transport_retries_total'):.0f} "
                "redeliveries="
                f"{counter('transport_redeliveries_total'):.0f} "
                "rejected="
                f"{counter('transport_frames_rejected_total'):.0f} "
                "deduped="
                f"{counter('transport_frames_deduped_total'):.0f}"
            )
            ok = report.ok and received is not None and received.ok
        else:
            if config.execution_mode == "process":
                domains = config.process_domains or config.compress_threads
                print(f"process mode: {domains} compressor domain(s) over "
                      "shared-memory rings")
            report = LivePipeline(config, telemetry=telemetry).run(
                make_source()
            )
            print(report.summary())
            ok = report.ok
    _write_observations(
        args, telemetry, obs, trace_sample=config.trace_sample
    )
    _write_json(args, report)
    return 0 if ok else 1


def _plan_generate(args) -> int:
    from repro.core.generator import ConfigGenerator, StreamRequest, Workload
    from repro.experiments.base import paper_testbed
    from repro.plan.ir import CodecNode
    from repro.plan.passes import run_passes
    from repro.plan.serialize import save_plan
    from repro.util.errors import ValidationError

    parser = args.parser
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
    if args.codec:
        try:
            codec_node = CodecNode.from_spec(args.codec)
            codec_node.spec().create()  # fail fast, before the plan is written
        except ValidationError as exc:
            parser.error(str(exc))
        plan = dataclasses.replace(plan, codec=codec_node)
    result = run_passes(plan)
    for warning in result.diagnostics.warnings:
        print(f"warning: {warning.message}", file=sys.stderr)
    save_plan(result.plan, args.output)
    print(f"wrote {plan.name!r} ({len(plan.streams)} streams) "
          f"to {args.output}")
    return 0


def _plan_explain(args) -> int:
    from repro.plan.explain import explain_plan
    from repro.plan.passes import run_passes

    plan = _load_plan(args.plan)
    result = run_passes(plan, strict=False)
    print(explain_plan(result.plan))
    if result.diagnostics:
        print()
        print(result.diagnostics.render())
    return 0 if result.ok else 1


def _plan_diff(args) -> int:
    from repro.plan.diff import diff_plans, substrate_drift

    parser = args.parser
    plan = _load_plan(args.plan)
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
    other = _load_plan(args.other)
    if args.format == "json":
        # The structured delta (repro.plan.delta) — machine-checkable
        # drift.
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

    plan = _load_plan(args.plan)
    if args.target == "sim":
        from repro.plan.serialize import save_scenario, scenario_to_json

        scenario = _lower_plan(args.plan, build_scenario, plan)
        if args.output:
            save_scenario(scenario, args.output)
            print(f"wrote scenario {scenario.name!r} to {args.output}")
        else:
            print(scenario_to_json(scenario))
        return 0
    lowered = _lower_plan(
        args.plan, build_live, plan, args.stream, host_cpus=args.host_cpus
    )
    doc = {
        "stream_id": lowered.stream_id,
        "codec": lowered.config.codec,
        "compress_threads": lowered.config.compress_threads,
        "decompress_threads": lowered.config.decompress_threads,
        "connections": lowered.config.connections,
        "queue_capacity": lowered.config.queue_capacity,
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


def _add_plan(sub) -> None:
    parser = sub.add_parser(
        "plan",
        help="generate, explain, diff or lower a pipeline plan",
        description="The planner (Figure 4): generate a "
        "substrate-neutral pipeline plan, explain its placements, diff "
        "two plans or one plan's two lowerings, or lower it by hand.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    generate = verbs.add_parser(
        "generate",
        help="plan a workload and write a plan file (format v3)",
    )
    generate.add_argument(
        "--stream", action="append", required=True,
        metavar="ID:SENDER:RECEIVER:PATH",
        help="stream spec; repeatable. Machines: lynxdtn, updraft1/2, "
        "polaris1/2. Paths: aps-lan, alcf-aps.",
    )
    generate.add_argument("--chunks", type=int, default=250)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--codec", metavar="SPEC",
        help="codec policy for the plan: a name or "
        "'name:k=v,...' spec string (e.g. zlib:level=6, shuffle-lz4, "
        "null); omitted = the default (zlib), which keeps plan files "
        "byte-identical to pre-codec-policy writers",
    )
    generate.add_argument(
        "--os-baseline", action="store_true",
        help="emit the OS-placement baseline instead of the NUMA-aware plan",
    )
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(handler=_plan_generate, parser=generate)

    explain = verbs.add_parser(
        "explain",
        help="print a plan with the §3 rationale behind every placement",
    )
    explain.add_argument("plan", help="plan or scenario file (v1/v2/v3)")
    explain.set_defaults(handler=_plan_explain)

    diff = verbs.add_parser(
        "diff",
        help="report drift between two plans, or between one plan's "
        "sim and live lowerings (--substrates)",
    )
    diff.add_argument("plan", help="plan or scenario file (v1/v2/v3)")
    diff.add_argument("other", nargs="?", help="second plan to compare")
    diff.add_argument(
        "--substrates", action="store_true",
        help="check sim-vs-live lowering parity instead of plan-vs-plan",
    )
    diff.add_argument(
        "--host-cpus", type=int, default=64,
        help="host CPU count for the live affinity folding (default 64)",
    )
    diff.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="json = the structured PlanDelta document (ops + notes); "
        "exit 1 on a non-empty delta",
    )
    diff.set_defaults(handler=_plan_diff, parser=diff)

    lower = verbs.add_parser(
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
        "--host-cpus", type=int,
        help="host CPU count for the live affinity folding "
        "(default: this host's)",
    )
    lower.add_argument("-o", "--output")
    lower.set_defaults(handler=_plan_lower)


def _add_run(sub) -> None:
    parser = sub.add_parser(
        "run",
        help="execute a plan on the simulator",
        description="Execute a plan file on the simulator: the planner's "
        "passes, the sim lowering, then the run on the virtual clock.",
    )
    parser.add_argument(
        "plan", help="plan or scenario file (v1/v2/v3) from `repro plan`"
    )
    _add_observation_arguments(parser)
    # The observation artefact only `live` can produce.
    parser.set_defaults(handler=_run, profile_out=None)


def _run(args) -> int:
    from repro.core.runtime import SimRuntime
    from repro.plan.passes import build_scenario
    from repro.util.tables import Table

    plan_obj = _load_plan(args.plan)
    scenario = _lower_plan(args.plan, build_scenario, plan_obj)
    telemetry = _telemetry_for(args)
    with _observed(telemetry, "sim", args) as obs:
        result = SimRuntime(
            scenario, telemetry=telemetry, watchdog=obs.watchdog_config
        ).run()
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
    _write_observations(args, telemetry, obs, streams=sorted(result.streams))
    print(table.render())
    _write_json(args, result)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NUMA-aware streaming runtime (SC'23 reproduction): "
        "plan a workload, run the plan on the simulator or on this host, "
        "and watch either run the same way.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_experiment(sub)
    _add_plan(sub)
    _add_run(sub)
    _add_live(sub)
    top = sub.add_parser(
        "top",
        help="live dashboard over a run's --obs-port",
        description="live dashboard for a repro pipeline's --obs-port",
    )
    add_top_arguments(top)
    top.set_defaults(handler=run_top)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
