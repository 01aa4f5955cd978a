"""The always-on projection daemon: HTTP front end + graceful lifecycle.

Pure stdlib — :class:`http.server.ThreadingHTTPServer` threads in front
of the :class:`~repro.daemon.scheduler.Scheduler`.  Endpoints (JSON in,
JSON out; see ``docs/DAEMON.md`` for the full protocol):

- ``POST /v1/jobs`` — submit a ``projection`` / ``batch`` / ``sweep``
  job; 429 with a structured body when the client's token bucket is
  empty, 503 once draining;
- ``GET /v1/jobs`` / ``GET /v1/jobs/<id>`` — queue listing / one job;
- ``GET /v1/jobs/<id>/result`` — the result document (409 + current
  state while the job is still pending);
- ``GET /v1/jobs/<id>/trace`` — the Chrome trace document of a job
  submitted with ``trace: true`` (409 until terminal);
- ``POST /v1/jobs/<id>/cancel`` — cancel (queued: immediate; running:
  cooperative);
- ``GET /v1/events?after=N&limit=M`` — the structured event ring
  (``repro daemon tail`` is the CLI follower);
- ``GET /v1/slo`` — rolling latency/error burn rates + shadow-audit
  verdict;
- ``GET /v1/status`` — queue depths, worker/limiter config, uptime,
  and the ``health`` field the shadow audit drives;
- ``GET /v1/version`` — package + protocol version;
- ``GET /metrics`` — Prometheus text exposition (service counters and
  stage summaries plus live queue gauges);
- ``GET /healthz`` — liveness.

:func:`run_daemon` is the CLI's ``daemon start``: it binds the socket,
writes ``<state_dir>/daemon.json`` (host/port/pid — how the other CLI
verbs find the daemon), and installs SIGTERM/SIGINT handlers that stop
intake, drain in-flight work within ``drain_deadline`` seconds, and
checkpoint/requeue whatever remains.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable

from repro.core.projector import PLAN_STORE
from repro.daemon.protocol import (
    PROTOCOL_VERSION,
    Job,
    error_body,
    new_job_id,
    validate_submission,
    validate_trace_context,
)
from repro.daemon.queue import JobQueue
from repro.daemon.ratelimit import RateLimiter
from repro.daemon.scheduler import Scheduler
from repro.gpu.arch import quadro_fx_5600
from repro.harness.context import ExperimentContext
from repro.obs.audit import ShadowAuditor
from repro.obs.context import new_trace_id
from repro.obs.events import EventLog
from repro.obs.prometheus import metric_name
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine
from repro.service.jobs import BadRequestError
from repro.surrogate.engine import SurrogateEngine
from repro.surrogate.store import load_model
from repro.util.store import BoundedStore
from repro.version import package_version

#: Name of the endpoint file the CLI verbs read to find a daemon.
ENDPOINT_FILE = "daemon.json"


class DaemonApp:
    """Everything behind the HTTP layer: queue, scheduler, limits."""

    def __init__(
        self,
        state_dir: str | Path,
        seed: int = 2013,
        workers: int = 2,
        rate: float | None = None,
        burst: float = 10.0,
        max_client_running: int = 2,
        drain_deadline: float = 10.0,
        use_cache: bool = True,
        surrogate_model: str | Path | None = None,
        slo: SLOConfig | None = None,
        audit_rate: float = 0.01,
        audit_min_agreement: float = 0.9,
        events_capacity: int = 1024,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.drain_deadline = drain_deadline
        self.started = time.time()
        self._draining = threading.Event()
        ctx = ExperimentContext(seed=seed)
        cache = (
            ProjectionCache(disk_dir=self.state_dir / "cache")
            if use_cache
            else None
        )
        self.engine = ProjectionEngine(
            arch=quadro_fx_5600(),
            bus=ctx.bus_model,
            cache=cache,
            max_workers=1,
        )
        self.events = EventLog(
            self.state_dir / "events.jsonl", capacity=events_capacity
        )
        self.slo = SLOMonitor(slo)
        self.surrogate: SurrogateEngine | None = None
        self.auditor: ShadowAuditor | None = None
        if surrogate_model is not None:
            # The fingerprint guard runs at load: a model trained for a
            # different arch/space refuses to start the daemon at all
            # rather than silently falling back on every job.
            model = load_model(
                surrogate_model, self.engine.arch, self.engine.space
            )
            self.surrogate = SurrogateEngine(model, self.engine)
            if audit_rate > 0:
                # Shadow audit accepted surrogate answers off the hot
                # path; the hook fires inside SurrogateEngine.project.
                self.auditor = ShadowAuditor(
                    self.engine,
                    rate=audit_rate,
                    min_agreement=audit_min_agreement,
                    events=self.events,
                )
                self.surrogate.auditor = self.auditor
                # Pre-register the audit counters so the series exist
                # on /metrics from the first scrape, not the first
                # disagreement.
                self.engine.metrics.incr("obs_surrogate_audits", 0)
                self.engine.metrics.incr(
                    "obs_surrogate_audit_disagreements", 0
                )
        self.queue = JobQueue(
            self.state_dir,
            max_running_per_client=max_client_running,
            events=self.events,
        )
        self.limiter = RateLimiter(rate, burst)
        self.scheduler = Scheduler(
            self.queue,
            self.engine,
            workers=workers,
            surrogate=self.surrogate,
            events=self.events,
            slo=self.slo,
        )
        if self.queue.recovered_jobs:
            self.engine.metrics.incr(
                "jobs_recovered", len(self.queue.recovered_jobs)
            )

    # Lifecycle ------------------------------------------------------------
    def start(self) -> None:
        self.scheduler.start()
        if self.auditor is not None:
            self.auditor.start()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def shutdown(self) -> bool:
        """Stop intake, drain with the deadline, requeue the rest."""
        self._draining.set()
        clean = self.scheduler.drain(self.drain_deadline)
        if self.auditor is not None:
            self.auditor.stop()
        self.events.close()
        return clean

    # Handlers: each returns ``(http_status, body_dict)`` ------------------
    def submit(self, body: Any) -> tuple[int, dict[str, Any]]:
        if self.draining:
            return 503, error_body(
                "daemon is draining and no longer accepts jobs",
                hint="resubmit after the daemon restarts",
            )
        try:
            kind, client, payload = validate_submission(body)
            trace, trace_id, client_submitted = validate_trace_context(
                body
            )
        except BadRequestError as exc:
            return 400, exc.to_dict()
        retry_after = self.limiter.check(client)
        if retry_after > 0:
            self.engine.metrics.incr("rate_limited")
            self.events.emit(
                "rate_limit",
                trace_id=trace_id,
                client=client,
                retry_after_seconds=retry_after,
            )
            return 429, self.limiter.rejection(client, retry_after)
        job = Job(
            job_id=new_job_id(),
            kind=kind,
            payload=payload,
            client=client,
            trace_id=trace_id or new_trace_id(),
            client_submitted=client_submitted,
            trace=trace,
        )
        try:
            self.queue.submit(job)
        except RuntimeError as exc:
            return 503, error_body(str(exc))
        self.engine.metrics.incr("jobs_submitted")
        return 200, {
            "id": job.job_id,
            "state": job.state,
            "position": self.queue.depth(),
            "trace_id": job.trace_id,
        }

    def job_status(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.queue.get(job_id)
        if job is None:
            return 404, error_body(
                f"unknown job {job_id!r}", field_name="id"
            )
        return 200, job.status_dict()

    def job_result(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.queue.get(job_id)
        if job is None:
            return 404, error_body(
                f"unknown job {job_id!r}", field_name="id"
            )
        if not job.terminal:
            return 409, error_body(
                f"job {job_id} is still {job.state}",
                hint="poll again once the job is done, or pass --wait",
                id=job_id,
                state=job.state,
            )
        body: dict[str, Any] = {"id": job_id, "state": job.state}
        if job.error is not None:
            body["error"] = job.error
        path = self.queue.result_path(job_id)
        if path.is_file():
            try:
                with open(path, encoding="utf-8") as fh:
                    body["result"] = json.load(fh)
            except (OSError, json.JSONDecodeError):
                body["error"] = error_body("result document unreadable")
        return 200, body

    def job_trace(self, job_id: str) -> tuple[int, dict[str, Any]]:
        """The job's Chrome trace document, once it exists."""
        job = self.queue.get(job_id)
        if job is None:
            return 404, error_body(
                f"unknown job {job_id!r}", field_name="id"
            )
        if not job.trace:
            return 404, error_body(
                f"job {job_id} was not traced",
                hint='submit with "trace": true '
                "(`repro daemon submit --trace`)",
                id=job_id,
            )
        path = self.scheduler.trace_path(job_id)
        if not path.is_file():
            return 409, error_body(
                f"job {job_id} is still {job.state}; no trace yet",
                hint="poll again once the job is terminal",
                id=job_id,
                state=job.state,
            )
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return 500, error_body("trace document unreadable")
        return 200, document

    def events_body(
        self, after: int = 0, limit: int = 100
    ) -> tuple[int, dict[str, Any]]:
        """The ``/v1/events`` body: ring events with ``seq > after``."""
        events = self.events.tail(limit=limit, after=after)
        return 200, {
            "events": [event.to_dict() for event in events],
            "last_seq": self.events.last_seq,
        }

    def slo_body(self) -> tuple[int, dict[str, Any]]:
        """The ``/v1/slo`` body: burn rates + shadow-audit verdict."""
        body: dict[str, Any] = {
            "slo": self.slo.snapshot(),
            "audit": (
                self.auditor.snapshot()
                if self.auditor is not None
                else None
            ),
        }
        body["health"] = self.health()
        return 200, body

    def health(self) -> str:
        """``ok`` unless the shadow audit says the surrogate drifted."""
        if self.auditor is not None and not self.auditor.healthy():
            return "degraded"
        return "ok"

    def cancel(self, job_id: str) -> tuple[int, dict[str, Any]]:
        try:
            job = self.queue.cancel(job_id)
        except KeyError:
            return 404, error_body(
                f"unknown job {job_id!r}", field_name="id"
            )
        return 200, job.status_dict()

    def list_jobs(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "jobs": [job.status_dict() for job in self.queue.jobs()]
        }

    def status(self) -> tuple[int, dict[str, Any]]:
        counts = self.queue.counts()
        body: dict[str, Any] = {
            "version": package_version(),
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_seconds": max(0.0, time.time() - self.started),
            "draining": self.draining,
            "health": self.health(),
            "workers": self.scheduler.worker_count,
            "surrogate": self.surrogate is not None,
            "rate_limited": self.limiter.enabled,
            "queue": counts,
            "depth": counts["queued"],
            "running": counts["running"],
            "state_dir": str(self.state_dir),
        }
        if self.auditor is not None:
            audit = self.auditor.snapshot()
            body["audit"] = {
                "agreement": audit["agreement"],
                "audits": audit["audits"],
                "disagreements": audit["disagreements"],
                "healthy": audit["healthy"],
            }
        return 200, body

    def version(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "version": package_version(),
            "protocol": PROTOCOL_VERSION,
        }

    def metrics_text(self) -> str:
        """Service metrics exposition plus live queue/SLO/audit and
        store gauges."""
        text = self.engine.metrics.to_prometheus()
        counts = self.queue.counts()
        slo = self.slo.snapshot()
        gauges: list[tuple[str, Any]] = [
            ("queue_depth", counts["queued"]),
            ("jobs_running", counts["running"]),
            ("uptime_seconds", max(0.0, time.time() - self.started)),
            ("obs_slo_window_jobs", slo["window_jobs"]),
            ("obs_slo_error_burn_rate", slo["error_burn_rate"]),
            ("obs_slo_latency_burn_rate", slo["latency_burn_rate"]),
            ("obs_events_emitted", self.events.last_seq),
            ("obs_health_ok", 1 if self.health() == "ok" else 0),
        ]
        cache, surrogate = self.engine.cache, self.surrogate
        stores: dict[str, BoundedStore | None] = {
            "plan_store": PLAN_STORE,
            "result_store": cache.memory if cache is not None else None,
            "kernel_store": self.engine.kernel_cache,
            "prepared_store": surrogate.prepared if surrogate else None,
        }
        for prefix, store in stores.items():
            if store is not None:
                gauges += [
                    (f"{prefix}_{stat}", value)
                    for stat, value in store.stats().items()
                    if value is not None
                ]
        if self.auditor is not None:
            audit = self.auditor.snapshot()
            gauges.append(
                (
                    "obs_surrogate_audit_agreement",
                    # 1.0 until the first audit lands: no evidence of
                    # drift is healthy, and a NaN would trip the strict
                    # exposition parser's float round-trip.
                    1.0 if audit["agreement"] is None
                    else audit["agreement"],
                )
            )
            gauges.append(
                ("obs_surrogate_audit_pending", audit["pending"])
            )
        lines = []
        for raw, value in gauges:
            name = metric_name(raw).removesuffix("_total")
            lines.append(f"# HELP {name} Live daemon gauge {raw!r}.")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
        return text + "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the app; JSON bodies both ways."""

    app: DaemonApp  # set by make_handler
    quiet = True
    protocol_version = "HTTP/1.1"

    # Silence per-request stderr noise unless asked for.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send_json(self, status: int, body: dict[str, Any]) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_text(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        return json.loads(raw)

    @staticmethod
    def _int_param(
        query: dict[str, list[str]], name: str, default: int
    ) -> int:
        values = query.get(name)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            return default

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urllib.parse.urlsplit(self.path)
        path = split.path.rstrip("/")
        if path == "/healthz":
            self._send_json(200, {"ok": True})
        elif path == "/metrics":
            self._send_text(200, self.app.metrics_text())
        elif path == "/v1/version":
            self._send_json(*self.app.version())
        elif path == "/v1/status":
            self._send_json(*self.app.status())
        elif path == "/v1/slo":
            self._send_json(*self.app.slo_body())
        elif path == "/v1/events":
            query = urllib.parse.parse_qs(split.query)
            self._send_json(
                *self.app.events_body(
                    after=self._int_param(query, "after", 0),
                    limit=self._int_param(query, "limit", 100),
                )
            )
        elif path == "/v1/jobs":
            self._send_json(*self.app.list_jobs())
        elif path.startswith("/v1/jobs/"):
            parts = path.split("/")
            if len(parts) == 4:
                self._send_json(*self.app.job_status(parts[3]))
            elif len(parts) == 5 and parts[4] == "result":
                self._send_json(*self.app.job_result(parts[3]))
            elif len(parts) == 5 and parts[4] == "trace":
                self._send_json(*self.app.job_trace(parts[3]))
            else:
                self._send_json(
                    404, error_body(f"no such endpoint {self.path!r}")
                )
        else:
            self._send_json(
                404, error_body(f"no such endpoint {self.path!r}")
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        try:
            body = self._read_body()
        except (json.JSONDecodeError, ValueError) as exc:
            self._send_json(
                400,
                error_body(
                    f"bad JSON body: {exc}",
                    hint="POST a JSON object",
                ),
            )
            return
        if path == "/v1/jobs":
            self._send_json(*self.app.submit(body))
        elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
            job_id = path.split("/")[3]
            self._send_json(*self.app.cancel(job_id))
        else:
            self._send_json(
                404, error_body(f"no such endpoint {self.path!r}")
            )


def make_handler(app: DaemonApp) -> type[_Handler]:
    return type("BoundHandler", (_Handler,), {"app": app})


class DaemonServer:
    """The bound, threaded HTTP server in front of one app."""

    def __init__(
        self, app: DaemonApp, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.app = app
        self.httpd = ThreadingHTTPServer((host, port), make_handler(app))
        self.httpd.daemon_threads = True

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a background thread (tests, benchmarks)."""
        self.app.start()
        thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-daemon-http",
            daemon=True,
        )
        thread.start()
        return thread

    def stop(self) -> bool:
        """Graceful shutdown: drain the app, then stop the listener."""
        clean = self.app.shutdown()
        self.httpd.shutdown()
        self.httpd.server_close()
        return clean


def write_endpoint_file(state_dir: Path, server: DaemonServer) -> Path:
    """Record where the daemon listens, atomically."""
    record = {
        "host": server.host,
        "port": server.port,
        "url": server.url,
        "pid": os.getpid(),
        "started": server.app.started,
        "version": package_version(),
    }
    target = state_dir / ENDPOINT_FILE
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    os.replace(tmp, target)
    return target


def read_endpoint_file(state_dir: str | Path) -> dict[str, Any] | None:
    """The daemon.json record, or None when absent/corrupt."""
    try:
        with open(
            Path(state_dir) / ENDPOINT_FILE, encoding="utf-8"
        ) as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def run_daemon(
    state_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    out: Callable[[str], None] = print,
    install_signals: bool = True,
    **app_options: Any,
) -> int:
    """``python -m repro daemon start``: serve until SIGTERM/SIGINT.

    Blocks the calling thread.  On a signal: stop intake (submissions
    get 503), drain in-flight jobs within the app's drain deadline
    (sweeps checkpoint and requeue), then stop the listener and remove
    the endpoint file.  Returns 0 on a clean drain, 1 otherwise.
    """
    state_dir = Path(state_dir)
    app = DaemonApp(state_dir, **app_options)
    server = DaemonServer(app, host, port)
    endpoint = write_endpoint_file(state_dir, server)
    stop_requested = threading.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(
                signum, lambda *_: stop_requested.set()
            )
    server.serve_in_thread()
    out(
        f"repro daemon v{package_version()} listening on {server.url} "
        f"(state: {state_dir}, workers: {app.scheduler.worker_count})"
    )
    if app.queue.recovered_jobs:
        out(
            f"  recovered {len(app.queue.recovered_jobs)} interrupted "
            f"job(s): {', '.join(app.queue.recovered_jobs)}"
        )
    try:
        stop_requested.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    out("shutdown requested: draining...")
    clean = server.stop()
    counts = app.queue.counts()
    out(
        f"drained {'cleanly' if clean else 'with stragglers'}: "
        f"{counts['done']} done, {counts['failed']} failed, "
        f"{counts['cancelled']} cancelled, {counts['queued']} requeued"
    )
    try:
        endpoint.unlink(missing_ok=True)
    except OSError:
        pass
    return 0 if clean else 1
