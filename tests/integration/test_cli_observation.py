"""The observation options of ``repro run`` / ``repro live``.

One declared group, one session: every option is exercised on both
substrates, and whatever the run raises, nothing the session started
outlives it.
"""

import json
import logging
import threading

import pytest

from repro.cli import main
from repro.obs.promparse import parse_prometheus_text

STREAM = "det1:updraft1:lynxdtn:aps-lan"
LIVE = ["live", "--chunks", "4", "--detector", "60x64"]


@pytest.fixture
def plan_file(tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "generate", "--stream", STREAM, "--chunks", "30",
                 "-o", str(out)]) == 0
    return out


@pytest.mark.parametrize("substrate", ["sim", "live"])
def test_every_observation_option_writes_its_artefact(
    substrate, plan_file, tmp_path, capsys
):
    paths = {
        name: tmp_path / name
        for name in ("trace.json", "metrics.prom", "result.json",
                     "events.jsonl", "stacks.txt")
    }
    argv = [
        "--trace-out", str(paths["trace.json"]),
        "--metrics-out", str(paths["metrics.prom"]),
        "--json-out", str(paths["result.json"]),
        "--events-out", str(paths["events.jsonl"]),
        "--profile",
    ]
    if substrate == "sim":
        argv = ["run", str(plan_file), *argv]
    else:
        argv = [*LIVE, *argv, "--profile-out", str(paths["stacks.txt"]),
                "--trace-sample", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out

    assert json.loads(paths["trace.json"].read_text())["traceEvents"]
    families = parse_prometheus_text(paths["metrics.prom"].read_text())
    assert "pipeline_chunks_total" in families
    events = [
        json.loads(line)
        for line in paths["events.jsonl"].read_text().splitlines()
    ]
    assert events[0]["kind"] == "run_start"
    assert events[-1]["kind"] == "run_end" and events[-1]["ok"] is True
    assert {e["source"] for e in events} == {substrate}
    envelope = json.loads(paths["result.json"].read_text())
    assert set(envelope) == {"kind", "ok", "result"} and envelope["ok"] is True

    assert "sampling profile:" in out
    assert f"wrote {len(events)} events to" in out
    assert "telemetry report for" in out
    phases = {
        e["ph"]
        for e in json.loads(paths["trace.json"].read_text())["traceEvents"]
    }
    assert {"s", "f"} <= phases
    if substrate == "live":
        assert paths["stacks.txt"].exists()
        assert "traced chunk journey(s) assembled" in out


class _Boom(RuntimeError):
    pass


def _fail_mid_run(self, *args, **kwargs):
    self.telemetry.emit_event("run_start", "about to fail")
    raise _Boom("mid-run failure")


@pytest.mark.parametrize("substrate", ["sim", "live"])
def test_failing_run_leaks_nothing(substrate, plan_file, tmp_path, monkeypatch):
    """The session's teardown runs when the run raises: no ``obs-*``
    thread, no handler on the ``repro`` logger, no open event sink."""
    from repro.core.runtime import SimRuntime
    from repro.live import LivePipeline
    from repro.obs import session

    buses = []

    class SpyBus(session.EventBus):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buses.append(self)

    monkeypatch.setattr(session, "EventBus", SpyBus)
    monkeypatch.setattr(SimRuntime, "run", _fail_mid_run)
    monkeypatch.setattr(LivePipeline, "run", _fail_mid_run)
    events_path = tmp_path / "events.jsonl"
    argv = ["run", str(plan_file)] if substrate == "sim" else list(LIVE)
    argv += ["--obs-port", "0", "--events-out", str(events_path), "--profile"]

    threads_before = set(threading.enumerate())
    handlers_before = list(logging.getLogger("repro").handlers)
    with pytest.raises(_Boom):
        main(argv)

    leaked = [
        t.name for t in set(threading.enumerate()) - threads_before
        if t.is_alive()
    ]
    assert leaked == []
    assert logging.getLogger("repro").handlers == handlers_before
    (bus,) = buses
    written = events_path.read_text().splitlines()
    assert json.loads(written[-1])["message"] == "about to fail"
    # Closed: a later emit reaches the ring but no longer the file.
    bus.emit("log", "after the run")
    assert events_path.read_text().splitlines() == written


def test_malformed_detector_is_a_usage_error(capsys):
    """Parsed before anything starts: exit 2, not a bare ValueError
    with the observability plane already up."""
    threads_before = set(threading.enumerate())
    with pytest.raises(SystemExit) as info:
        main(["live", "--obs-port", "0", "--detector", "bogus",
              "--chunks", "1"])
    assert info.value.code == 2
    assert "ROWSxCOLS" in capsys.readouterr().err
    assert set(threading.enumerate()) == threads_before


class TestLiveSizing:
    """A flag that is given wins, otherwise the plan, otherwise the
    default — one rule for every sizing flag."""

    def _compress_workers(self, tmp_path, capsys, *flags):
        """Run with telemetry on; the report table's ``thr`` column is
        the number of compress workers that actually ran."""
        assert main([*LIVE, "--metrics-out", str(tmp_path / "m.prom"),
                     *flags]) == 0
        out = capsys.readouterr().out
        report = next(
            line for line in out.splitlines()
            if line.lstrip().startswith("compress ")
        )
        return out, int(report.split()[1])

    def test_flag_beats_plan(self, plan_file, tmp_path, capsys):
        out, workers = self._compress_workers(
            tmp_path, capsys, "--plan", str(plan_file),
            "--compress-threads", "1",
        )
        assert "-> compress=1 " in out
        assert workers == 1

    def test_plan_beats_default(self, plan_file, tmp_path, capsys):
        from repro.plan.passes import build_live
        from repro.plan.serialize import load_plan

        planned = build_live(load_plan(str(plan_file))).config.compress_threads
        assert planned not in (1, 2)
        out, workers = self._compress_workers(
            tmp_path, capsys, "--plan", str(plan_file)
        )
        assert f"-> compress={planned} " in out
        assert workers == planned

    def test_default_without_plan(self, tmp_path, capsys):
        _, workers = self._compress_workers(tmp_path, capsys)
        assert workers == 2

    def test_out_of_range_sizing_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([*LIVE, "--compress-threads", "0"])
        assert info.value.code == 2
        assert "compress_threads must be >= 1" in capsys.readouterr().err
