#!/usr/bin/env python3
"""Which ``src/repro`` functions the system's own entry points execute.

    python tools/reachability.py [--json-out FILE]

Runs every entry point that defines the system in a subprocess whose
``sitecustomize`` installs a ``sys.setprofile`` / ``threading.setprofile``
hook.  The hook appends one line (file, first line, name) to a shared
log the first time its process enters a function defined under
``src/repro``.  Appending as it goes, rather than at exit, is what lets
processes that are killed instead of exited report too: the warm
compressor pool's workers and perfbench's children, whose process
group is SIGKILLed.  The multiprocessing children inherit the hook
(spawn re-imports ``sitecustomize`` from the inherited ``PYTHONPATH``;
fork keeps it).

Every function defined under ``src/repro`` is then enumerated by
compiling the source (comprehensions, lambdas and class bodies count as
part of what encloses them), and the ones no entry point entered are
printed per module, followed by the totals.

The entry points:

- ``perfbench/run.py --seconds 0.5`` (all seven workloads, untraced and
  traced; fixed, because perfbench's full-scale self-checks switch on
  only at 5 s, so another length would reach other code);
- ``repro experiment all --quick``;
- the documented command-line flows: ``plan generate/explain/diff/lower``,
  ``run`` with every observation option, ``live`` with zlib and lz4,
  ``--fault``, ``--plan``, ``--mode process --domains 2``,
  ``--listen``/``--connect`` with an injected drop,
  and ``--obs-port`` read on all five endpoints plus ``repro top --once``.

A flow that exits unexpectedly is reported on stderr and makes the exit
status 1, because its missing reach would read as dead code.  Stdlib
only; it runs from any checkout (it measures the tree it sits in), so
two commits compare by running each copy with ``--json-out``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The hook every measured interpreter imports at startup.
SITECUSTOMIZE = '''\
import os
import sys
import threading

_prefix = os.environ["REPRO_REACH_PREFIX"]
_fd = os.open(os.environ["REPRO_REACH_LOG"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            path = os.path.realpath(code.co_filename)
            if path.startswith(_prefix):
                os.write(_fd, (f"{path[len(_prefix):]}\\t"
                               f"{code.co_firstlineno}\\t"
                               f"{code.co_name}\\n").encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
'''

#: perfbench's timed budget per workload, in seconds.
PERFBENCH_SECONDS = 0.5

STREAM = "det1:updraft1:lynxdtn:aps-lan"
LIVE_SMALL = ["--chunks", "5", "--detector", "64x64"]

#: Flows that run to completion on their own: (label, repro argv).  Each
#: exits 0 except ``plan diff``, whose two plans differ (exit 1 = drift).
FLOWS: list[tuple[str, list[str]]] = [
    ("plan generate", ["plan", "generate", "--stream", STREAM,
                       "--chunks", "600", "-o", "plan.json"]),
    ("plan generate --os-baseline",
     ["plan", "generate", "--stream", STREAM, "--chunks", "60",
      "--os-baseline", "-o", "os.json"]),
    ("plan explain", ["plan", "explain", "plan.json"]),
    ("plan diff", ["plan", "diff", "plan.json", "os.json"]),
    ("plan lower", ["plan", "lower", "plan.json", "--target", "sim",
                    "-o", "scenario.json"]),
    ("run plan (observed)",
     ["run", "plan.json", "--trace-out", "sim-trace.json",
      "--metrics-out", "sim.prom", "--json-out", "sim.json",
      "--events-out", "sim.jsonl", "--profile"]),
    ("run scenario", ["run", "scenario.json"]),
    ("live zlib (observed)",
     ["live", *LIVE_SMALL, "--codec", "zlib", "--trace-sample", "1",
      "--trace-out", "live-trace.json", "--metrics-out", "live.prom",
      "--json-out", "live.json", "--events-out", "live.jsonl",
      "--profile"]),
    ("live lz4", ["live", *LIVE_SMALL, "--codec", "lz4"]),
    ("live --fault", ["live", "--chunks", "6", "--detector", "64x64",
                      "--fault", "drop:at=3", "--fault", "corrupt:at=7",
                      "--json-out", "fault.json"]),
    ("live --plan", ["live", "--plan", "plan.json", "--compress-threads",
                     "1", "--chunks", "3", "--detector", "64x64"]),
    ("live --mode process", ["live", "--mode", "process", "--domains", "2",
                             "--chunks", "8", "--detector", "64x64",
                             "--codec", "zlib"]),
]

#: The observation plane's endpoints, read while a run streams.
ENDPOINTS = ("/healthz", "/metrics", "/report", "/events?n=5", "/trace")


class Runner:
    """Runs ``python -m repro`` (and perfbench) with the hook installed."""

    def __init__(self, workdir: Path, hookdir: Path, log: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(hookdir), str(SRC)]),
            PYTHONUNBUFFERED="1",
            REPRO_REACH_LOG=str(log),
            REPRO_REACH_PREFIX=str(PACKAGE) + os.sep,
        )
        self.failed: list[str] = []

    def popen(self, argv: list[str]) -> subprocess.Popen[str]:
        return subprocess.Popen(
            [sys.executable, *argv], cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def check(self, label: str, proc: subprocess.Popen[str],
              timeout: float = 900.0, expect: int = 0) -> str:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        if proc.returncode != expect:
            self.failed.append(label)
            tail = "\n".join(out.splitlines()[-5:])
            print(f"reachability: {label} exited {proc.returncode}:\n{tail}",
                  file=sys.stderr)
        return out

    def repro(self, label: str, argv: list[str]) -> str:
        print(f"  {label}", file=sys.stderr)
        return self.check(label, self.popen(["-m", "repro", *argv]),
                          expect=1 if label == "plan diff" else 0)

    def until_line(self, proc: subprocess.Popen[str], pattern: str) -> str:
        """Read ``proc``'s output until a line matches; the match's group 1."""
        assert proc.stdout is not None
        for line in proc.stdout:
            found = re.search(pattern, line)
            if found:
                return found.group(1)
        raise RuntimeError(f"no line matching {pattern!r}")


def run_entry_points(runner: Runner) -> None:
    print(f"  perfbench/run.py --seconds {PERFBENCH_SECONDS:g}",
          file=sys.stderr)
    runner.check("perfbench", runner.popen(
        [str(ROOT / "perfbench" / "run.py"),
         "--seconds", str(PERFBENCH_SECONDS)]))
    runner.repro("experiment all --quick",
                 ["experiment", "all", "--quick"])
    for label, argv in FLOWS:
        runner.repro(label, argv)

    # A receiving endpoint, then a sender whose second frame's
    # connection is dropped: reconnect, replay and dedup all run.
    print("  live --listen / --connect --fault drop", file=sys.stderr)
    listener = runner.popen(["-m", "repro", "live", "--listen",
                             "127.0.0.1:0", "--detector", "64x64"])
    address = runner.until_line(listener, r"listening on (\S+:\d+)")
    runner.check("live --connect", runner.popen(
        ["-m", "repro", "live", "--connect", address, *LIVE_SMALL,
         "--fault", "drop:at=2"]))
    runner.check("live --listen", listener, timeout=120)

    # The observation plane on a streaming run, and the dashboard.
    print("  live --obs-port, its endpoints and repro top --once",
          file=sys.stderr)
    observed = runner.popen(["-m", "repro", "live", "--chunks", "3000",
                             "--detector", "64x64", "--codec", "zlib",
                             "--obs-port", "0", "--events-out", "obs.jsonl",
                             "--profile"])
    url = runner.until_line(observed, r"endpoints at (http://\S+)")
    time.sleep(1.0)  # let chunks flow, so every endpoint has content
    for path in ENDPOINTS:
        try:
            with urllib.request.urlopen(url + path, timeout=30) as resp:
                resp.read()
        except OSError as exc:
            runner.failed.append(f"GET {path}")
            print(f"reachability: GET {path} failed: {exc}", file=sys.stderr)
    runner.check("repro top --once", runner.popen(
        ["-m", "repro", "top", url, "--once", "--no-color"]))
    runner.check("live --obs-port", observed)


def defined_functions() -> dict[str, list[tuple[int, str]]]:
    """Every function under ``src/repro``, per module path: (line, qualname).

    The qualified name is built while walking, as ``co_qualname`` (3.11+)
    would give it, so the tool runs on every supported interpreter.
    """

    def walk(code: CodeType, prefix: str):
        for const in code.co_consts:
            if not isinstance(const, CodeType):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED:
                qualname = prefix + const.co_name
                if not const.co_name.startswith("<"):
                    yield const.co_firstlineno, qualname
                yield from walk(const, qualname + ".<locals>.")
            else:  # a class body
                yield from walk(const, prefix + const.co_name + ".")

    found: dict[str, list[tuple[int, str]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        module = compile(path.read_text(), str(path), "exec")
        found[rel] = list(walk(module, ""))
    return found


def reached_functions(log: Path) -> set[tuple[str, int, str]]:
    """(module path, first line, name) of every function entered."""
    reached = set()
    for line in log.read_text().splitlines():
        rel, lineno, name = line.split("\t")
        reached.add((Path(rel).as_posix(), int(lineno), name))
    return reached


def was_reached(reached: set[tuple[str, int, str]], rel: str, lineno: int,
                qualname: str) -> bool:
    return (rel, lineno, qualname.rpartition(".")[2]) in reached


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--json-out", metavar="PATH",
        help="also write the defined and reached sets as JSON",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        tmpdir = Path(tmp)
        hookdir, workdir = tmpdir / "hook", tmpdir / "work"
        hookdir.mkdir()
        workdir.mkdir()
        (hookdir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        log = tmpdir / "reached.log"
        log.touch()
        runner = Runner(workdir, hookdir, log)
        print("running the entry points:", file=sys.stderr)
        run_entry_points(runner)
        reached = reached_functions(log)

    defined = defined_functions()
    total = sum(len(funcs) for funcs in defined.values())
    hit = 0
    for rel, funcs in defined.items():
        missed = [(n, q) for n, q in funcs
                  if not was_reached(reached, rel, n, q)]
        hit += len(funcs) - len(missed)
        if missed:
            print(f"src/repro/{rel}: {len(funcs) - len(missed)}/{len(funcs)} "
                  "reached; unreached:")
            for lineno, qualname in missed:
                print(f"    {qualname} (line {lineno})")
    print(f"{hit} of {total} functions reached by the entry points")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps({
            "defined": sorted(f"{rel}:{q}" for rel, fs in defined.items()
                              for _, q in fs),
            "reached": sorted(f"{rel}:{q}" for rel, fs in defined.items()
                              for n, q in fs
                              if was_reached(reached, rel, n, q)),
            "failed_flows": runner.failed,
        }, indent=1) + "\n")
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
