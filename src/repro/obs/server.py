"""In-process HTTP observability endpoints for a running pipeline.

:class:`ObservabilityServer` wraps a stdlib ``ThreadingHTTPServer`` —
zero dependencies, daemon threads, safe to embed in either live
endpoint — and serves four read-only views of one
:class:`~repro.telemetry.Telemetry`:

========== ===========================================================
endpoint   payload
========== ===========================================================
/metrics   Prometheus text exposition of the live registry
/healthz   JSON liveness verdict from per-worker heartbeats
           (HTTP 200 healthy / 503 stale)
/report    the current :class:`~repro.telemetry.report.PipelineReport`
           as JSON, plus the sampling profile when one is attached
/events    most recent structured events (``?n=50&kind=stage_stall``)
/trace     assembled per-chunk flow traces (``?n=20`` caps how many),
           with waterfalls, critical-path verdicts, and the
           sender/receiver clock-offset bound
========== ===========================================================

``/healthz`` is the piece a supervisor actually probes: a worker whose
heartbeat is older than ``stale_after`` seconds flips the whole
endpoint to 503 — long before the run's own timeout fires.  A finished
run calls :meth:`ObservabilityServer.mark_finished` so the inevitable
post-run staleness doesn't read as death.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs, urlparse

from repro.telemetry import Telemetry, trace_summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.events import EventBus
    from repro.obs.profiler import SamplingProfiler

#: Content type of the Prometheus text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ObservabilityServer:
    """Serves ``/metrics``, ``/healthz``, ``/report``, ``/events``,
    ``/trace``.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` — the integration tests do).  The server is wholly
    passive: every endpoint is a snapshot read of shared telemetry, so
    attaching it never changes pipeline behavior.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        stale_after: float = 5.0,
        events: "EventBus | None" = None,
        profiler: "SamplingProfiler | None" = None,
    ) -> None:
        if stale_after <= 0:
            raise ValueError("stale_after must be > 0")
        self.telemetry = telemetry
        self.stale_after = stale_after
        self.events = events if events is not None else telemetry.events
        self.profiler = profiler
        self._finished = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reaches back through the server object.
        self._httpd.obs = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def host(self) -> str:
        return str(self._httpd.server_address[0])

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObservabilityServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="obs-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        thread.join(timeout=2.0)
        self._httpd.server_close()
        self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def mark_finished(self) -> None:
        """The run completed: stale heartbeats are now expected."""
        self._finished.set()

    # -- payloads --------------------------------------------------------

    def health(self) -> tuple[int, dict[str, Any]]:
        """The ``/healthz`` verdict: ``(http status, body)``."""
        now = self.telemetry.clock.now()
        beats = self.telemetry.heartbeats()
        workers: dict[str, dict[str, Any]] = {}
        stale: list[str] = []
        for worker, beat in sorted(beats.items()):
            age = max(0.0, now - beat)
            ok = age <= self.stale_after
            if not ok:
                stale.append(worker)
            workers[worker] = {"age_s": round(age, 3), "ok": ok}
        finished = self._finished.is_set()
        healthy = finished or not stale
        body = {
            "status": "finished" if finished else ("ok" if healthy else "stale"),
            "healthy": healthy,
            "stale_after_s": self.stale_after,
            "stale_workers": [] if finished else stale,
            "workers": workers,
        }
        return (200 if healthy else 503), body

    def report(self) -> dict[str, Any]:
        """The ``/report`` payload."""
        report = self.telemetry.pipeline_report()
        if self.profiler is not None:
            report.profile = self.profiler.stage_self_seconds()
        return report.to_dict()

    def recent_events(
        self, n: int | None = None, kind: str | None = None
    ) -> dict[str, Any]:
        """The ``/events`` payload."""
        if self.events is None:
            return {"events": [], "emitted": 0}
        events = self.events.recent(n, kind=kind)
        return {
            "events": [e.to_dict() for e in events],
            "emitted": self.events.emitted,
            "counts": self.events.counts(),
        }

    def trace(self, limit: int = 20) -> dict[str, Any]:
        """The ``/trace`` payload: assembled flow traces, newest last."""
        return trace_summary(
            self.telemetry.spans.snapshot(),
            align=self.telemetry.trace_align,
            limit=limit,
        )


class _Handler(BaseHTTPRequestHandler):
    """Routes GETs to the owning :class:`ObservabilityServer`."""

    # Tolerate abruptly-closed scrape connections.
    protocol_version = "HTTP/1.1"

    @property
    def obs(self) -> ObservabilityServer:
        return self.server.obs  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        """Silenced: scrapes at 1 Hz must not spam the pipeline's stderr."""

    def _send(
        self, status: int, payload: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        payload = json.dumps(body, default=str).encode("utf-8")
        self._send(status, payload, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/metrics":
                text = self.obs.telemetry.prometheus_text()
                self._send(200, text.encode("utf-8"), PROM_CONTENT_TYPE)
            elif parsed.path == "/healthz":
                status, body = self.obs.health()
                self._send_json(status, body)
            elif parsed.path == "/report":
                self._send_json(200, self.obs.report())
            elif parsed.path == "/events":
                query = parse_qs(parsed.query)
                n = int(query["n"][0]) if "n" in query else 100
                kind = query.get("kind", [None])[0]
                self._send_json(200, self.obs.recent_events(n, kind))
            elif parsed.path == "/trace":
                query = parse_qs(parsed.query)
                n = int(query["n"][0]) if "n" in query else 20
                self._send_json(200, self.obs.trace(n))
            elif parsed.path == "/":
                self._send_json(
                    200,
                    {"endpoints": ["/metrics", "/healthz", "/report",
                                   "/events", "/trace"]},
                )
            else:
                self._send_json(404, {"error": f"no route {parsed.path!r}"})
        except Exception as exc:  # pragma: no cover - handler must not die
            try:
                self._send_json(500, {"error": str(exc)})
            except OSError:
                pass
