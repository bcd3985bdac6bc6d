"""``python -m repro live`` as a real child process, scraped while it streams.

What the in-process CLI tests cannot see: the ``__main__`` entry point,
the default ``spawn`` start method of process mode (tier-1 otherwise
runs it under ``fork`` for speed), and the observability plane serving
a run that is still in progress.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.cli import main
from repro.obs.promparse import label_values, parse_prometheus_text

pytestmark = pytest.mark.slow

URL_RE = re.compile(r"observability endpoints at (http://\S+)")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def fetch_json(url):
    status, body = fetch(url)
    assert status == 200, f"{url} -> {status}: {body[:200]!r}"
    return json.loads(body)


class Child:
    """A running ``repro live`` child; a reader thread keeps its output."""

    def __init__(self, proc):
        self.proc = proc
        self.lines = []
        self.url = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.append(line)
            found = URL_RE.search(line)
            if found:
                self.url = found.group(1)
                self._announced.set()
        self._announced.set()  # EOF without a URL: stop the wait

    def wait_for_url(self, timeout=60.0):
        self._announced.wait(timeout)
        assert self.url is not None, (
            "repro live never announced its obs URL; output so far:\n"
            + "".join(self.lines)
        )

    def finish(self, timeout=120.0):
        """Wait for a clean exit; returns everything the child printed."""
        self.proc.wait(timeout=timeout)
        self._reader.join(timeout=10.0)
        out = "".join(self.lines)
        assert self.proc.returncode == 0, (
            f"repro live exited {self.proc.returncode}:\n{out[-2000:]}"
        )
        return out


@pytest.fixture
def live_child(tmp_path):
    """Launch ``python -m repro live <flags> --obs-port 0`` in
    ``tmp_path``; returns once the child announced its URL."""
    children = []

    def launch(*flags):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        env["PYTHONUNBUFFERED"] = "1"  # the URL line must not sit in a buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "live", *flags, "--obs-port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=tmp_path, env=env,
        )
        child = Child(proc)
        children.append(child)
        child.wait_for_url()
        return child

    yield launch
    for child in children:
        if child.proc.poll() is None:
            child.proc.kill()
            child.proc.wait()


def test_all_endpoints_serve_a_streaming_run(live_child, tmp_path):
    child = live_child("--chunks", "500", "--codec", "zlib",
                       "--events-out", "events.jsonl", "--profile")
    base = child.url

    # /metrics must survive the strict exposition parser and carry the
    # canonical families.
    status, body = fetch(f"{base}/metrics")
    assert status == 200
    families = parse_prometheus_text(body.decode("utf-8"))
    for family in ("pipeline_chunks_total", "worker_heartbeat_seconds",
                   "repro_watchdog_polls_total"):
        assert family in families

    # /healthz: workers beat on their first completed span, so give the
    # run a moment to produce one.
    deadline = time.monotonic() + 15.0
    while True:
        status, body = fetch(f"{base}/healthz")
        health = json.loads(body)
        assert status == 200, health
        assert health["healthy"] is True
        if health["workers"] or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert health["workers"], "no worker heartbeats on /healthz"

    report = fetch_json(f"{base}/report")
    assert "stages" in report and "bottleneck" in report
    kinds = {e["kind"] for e in fetch_json(f"{base}/events")["events"]}
    assert "run_start" in kinds
    assert "traces" in fetch_json(f"{base}/trace")

    # `repro top` consumes the same endpoints.
    assert main(["top", base, "--once", "--no-color"]) == 0

    child.finish()
    # The JSONL sink holds the full story, all stamped with the source.
    stories = [
        json.loads(line)
        for line in (tmp_path / "events.jsonl").read_text().splitlines()
    ]
    assert stories[0]["kind"] == "run_start"
    assert any(e["kind"] == "run_end" and e.get("ok") is True for e in stories)
    assert all(e["source"] == "live" for e in stories)


def test_process_mode_under_spawn_beats_per_worker(live_child):
    domains = 2
    child = live_child("--mode", "process", "--domains", str(domains),
                       "--chunks", "400", "--codec", "zlib",
                       "--detector", "120x128")
    workers = [f"mp-compress-{d}" for d in range(domains)]

    # Healthy from the first poll; spawn-started workers take a moment
    # to beat, so scrape until they all show up (or the run ends).
    deadline = time.monotonic() + 60.0
    beats = {}
    while time.monotonic() < deadline:
        health = fetch_json(f"{child.url}/healthz")
        assert health["healthy"] is True, health
        status, body = fetch(f"{child.url}/metrics")
        assert status == 200
        families = parse_prometheus_text(body.decode("utf-8"))
        beats = label_values(families, "worker_heartbeat_seconds", "worker")
        if all(w in beats for w in workers) or child.proc.poll() is not None:
            break
        time.sleep(0.1)
    for worker in workers:
        assert beats.get(worker, 0) > 0, f"no heartbeat for {worker}: {beats}"
    assert "mp-feeder" in beats
    # The affinity gauge exists per process worker either way: 0 on
    # hosts without pinning headroom, the applied set size otherwise.
    affinity = label_values(families, "repro_affinity_cpus", "role")
    for worker in workers:
        assert worker in affinity

    out = child.finish(timeout=300.0)
    assert f"process mode: {domains} compressor domain(s)" in out


def test_cross_process_trace_assembles_with_flow_arrows(live_child, tmp_path):
    child = live_child("--chunks", "400", "--codec", "zlib",
                       "--mode", "process", "--trace-sample", "8",
                       "--trace-out", "flow.json")
    journey = {"feed", "compress", "send", "wire", "recv"}

    # Spawn-started compressor processes take seconds to come up; poll
    # until an assembled trace spans the full journey.
    deadline = time.monotonic() + 90.0
    doc, trace = {}, None
    while time.monotonic() < deadline and child.proc.poll() is None:
        doc = fetch_json(f"{child.url}/trace")
        trace = next(
            (t for t in doc.get("traces", [])
             if journey <= {s["stage"] for s in t["spans"]}),
            None,
        )
        if trace is not None:
            break
        time.sleep(0.1)
    assert trace is not None, (
        "no fully assembled trace before the run ended; last /trace doc: "
        + json.dumps(doc)[:2000]
    )
    compress = next(s for s in trace["spans"] if s["stage"] == "compress")
    assert compress["track"].startswith("mp-compress-"), compress
    assert trace["waterfall"]["total"] > 0
    assert doc["critical_path"], "critical path missing from /trace"
    for stream, verdict in doc["critical_path"].items():
        assert verdict["stage"], f"unnamed critical path for {stream}"

    child.finish(timeout=180.0)
    # The exported Chrome trace links the same spans with flow arrows.
    events = json.loads((tmp_path / "flow.json").read_text())["traceEvents"]
    assert {"s", "f"} <= {e["ph"] for e in events}
    assert any(e["cat"] == "flow" for e in events if e["ph"] == "s")
