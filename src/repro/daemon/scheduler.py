"""The daemon's scheduler: a bounded worker pool over the job queue.

Workers block in :meth:`~repro.daemon.queue.JobQueue.claim` (which
already enforces per-client running limits), execute one job at a time,
and write results through the queue.  Execution reuses the service
layer end-to-end — :func:`repro.service.jobs.parse_objects` for
validation and :func:`repro.service.jobs.project_parsed` for the cached
parallel projection — so a daemon job's records are the very dicts
``python -m repro batch`` would have written.

Sweep jobs checkpoint every finished tile
(:class:`~repro.daemon.checkpoint.SweepCheckpoint`); an interrupted
sweep (SIGKILL, drain deadline) resumes from its checkpoint on the next
start instead of recomputing.  Cancellation is cooperative: the queue
sets the job's cancel event, and the scheduler observes it between
records/tiles.

Metrics (shared :class:`~repro.service.metrics.ServiceMetrics`):
``queue_wait`` and ``job_run`` stage timers feed the p50/p95/p99
histograms, and counters track submissions, completions, failures,
cancellations, and checkpoint traffic — all scraped via ``/metrics``.

Observability v2 rides along.  Job lifecycle events (submit/start/
requeue/complete/fail/cancel) come from the queue, one per journal
append; when the scheduler is built with an
:class:`~repro.obs.events.EventLog` it adds only what the journal does
not record (surrogate accept/fallback decisions and tile-scoped sweep
``fail`` events); an
:class:`~repro.obs.slo.SLOMonitor` observes every terminal job; and a
job submitted with ``trace: true`` runs under a per-worker scoped
tracer (:func:`repro.obs.trace.scoped_tracing`) whose spans — stitched
with the client-submit and queue-dwell lifecycle edges — are written to
``<state_dir>/traces/<job_id>.trace.json`` for ``GET
/v1/jobs/<id>/trace``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

from repro.daemon.checkpoint import SweepCheckpoint
from repro.daemon.protocol import Job, error_body
from repro.daemon.queue import JobQueue
from repro.gpu.registry import (
    UnknownArchitectureError,
    arch_ids,
    get_arch,
)
from repro.obs.context import build_job_trace
from repro.obs.events import EventLog
from repro.obs.metrics import nearest_rank
from repro.obs.slo import SLOMonitor
from repro.obs.trace import Tracer, scoped_tracing
from repro.obs.trace import span as trace_span
from repro.service.engine import ProjectionEngine
from repro.service.jobs import (
    BadRequestError,
    parse_objects,
    project_parsed,
)
from repro.surrogate.engine import SERVING_MODES, SurrogateEngine

#: Where per-job Chrome traces land, under the queue's state dir.
TRACES_DIR = "traces"


class JobInterrupted(Exception):
    """Raised inside execution when a drain wants the job requeued."""


def batch_records_summary(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Counts + cache hits + p95 over serialized batch/sweep records.

    Works on the JSON record dicts (not live responses), so the daemon
    can summarize results it read back from disk.
    """
    ok = [row for row in rows if row.get("ok")]
    seconds = [
        row["seconds"] for row in ok if isinstance(
            row.get("seconds"), (int, float)
        )
    ]
    return {
        "total": len(rows),
        "ok": len(ok),
        "errors": len(rows) - len(ok),
        "cache_hits": sum(1 for row in ok if row.get("cached")),
        "p95_seconds": nearest_rank(seconds, 0.95) if seconds else None,
    }


class Scheduler:
    """Executes queued jobs on ``workers`` daemon threads."""

    def __init__(
        self,
        queue: JobQueue,
        engine: ProjectionEngine,
        workers: int = 2,
        base_dir: str | Path | None = None,
        surrogate: SurrogateEngine | None = None,
        events: EventLog | None = None,
        slo: SLOMonitor | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._queue = queue
        self._engine = engine
        #: Optional learned front-end for projection jobs; ``mode`` in a
        #: projection payload selects auto/surrogate/exact per job.
        self._surrogate = surrogate
        self._metrics = engine.metrics
        self._workers = workers
        #: Relative skeleton_file paths in payloads resolve against this
        #: (the daemon's working directory by default).
        self._base_dir = Path(base_dir) if base_dir else Path.cwd()
        self._events = events
        self._slo = slo
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []

    def _emit(self, event_type: str, job: Job, **attrs: Any) -> None:
        """One in-flight event carrying the job's identity triple."""
        if self._events is not None:
            self._events.emit(
                event_type,
                job_id=job.job_id,
                trace_id=job.trace_id,
                client=job.client,
                **attrs,
            )

    def trace_path(self, job_id: str) -> Path:
        """Where a traced job's Chrome document lands."""
        return self._queue.state_dir / TRACES_DIR / f"{job_id}.trace.json"

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def worker_count(self) -> int:
        return self._workers

    # Lifecycle ------------------------------------------------------------
    def start(self) -> None:
        for index in range(self._workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-daemon-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def drain(self, deadline: float) -> bool:
        """Stop claiming, finish in-flight work, requeue the rest.

        Returns True when every worker exited within ``deadline``
        seconds.  Sweep jobs observe the drain between tiles, so their
        progress is checkpointed and requeued promptly; whatever is
        still running when the deadline passes is requeued anyway — the
        journal then replays it as interrupted on the next start.

        Also releases the process-wide thread pool the batch runner fans
        out on via
        :meth:`~repro.service.engine.ProjectionEngine.close` — the
        daemon owns the process, so nothing else will want them.
        """
        self._draining.set()
        self._queue.close_intake()
        clean = True
        remaining = deadline
        for thread in self._threads:
            step = max(0.05, remaining)
            before = time.monotonic()
            thread.join(step)
            remaining -= time.monotonic() - before
            if thread.is_alive():
                clean = False
        for job in self._queue.running():
            self._queue.requeue(job.job_id, "shutdown")
            self._metrics.incr("jobs_requeued")
        self._engine.close()
        return clean

    # Workers ---------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.claim(timeout=0.5)
            if job is None:
                if self._queue.closed:
                    return
                continue
            wait = job.queue_wait()
            if wait is not None:
                self._metrics.add_time("queue_wait", wait)
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        """Execute one claimed job under its (optional) scoped tracer.

        The tracer is installed on *this worker thread only*
        (:func:`~repro.obs.trace.scoped_tracing`), so concurrent workers
        tracing different jobs never leak spans into each other.  The
        daemon's engine executes serially on the claiming thread
        (``max_workers=1``), which keeps every engine span on the scoped
        thread.
        """
        tracer = Tracer() if job.trace else None
        scope = scoped_tracing(tracer) if tracer is not None else nullcontext()
        run_start = time.perf_counter()
        with scope:
            outcome, commit = self._run_job_inner(job)
        if tracer is not None and outcome != "requeued":
            # Persist the trace *before* the job turns terminal, so a
            # client that saw a terminal /result can always fetch
            # /trace without racing the writer.
            self._write_trace(job, tracer)
        if self._slo is not None and outcome in ("done", "failed"):
            # Likewise before the commit: a client that saw the job
            # terminal must find it in the SLO window already.
            self._slo.observe_job(
                time.perf_counter() - run_start, ok=outcome == "done"
            )
        commit()

    def _run_job_inner(
        self, job: Job
    ) -> tuple[str, Callable[[], None]]:
        """Execute one job to a verdict; the returned callable commits it.

        The commit (queue state transition, which emits the lifecycle
        event, + counters) is deferred so the caller can write the job's
        trace file first — a terminal job therefore always has its trace
        on disk.
        """
        with trace_span(
            "job", category="daemon", job=job.job_id, kind=job.kind
        ):
            try:
                with self._metrics.timer("job_run"):
                    result = self._execute(job)
            except JobInterrupted:

                def requeue() -> None:
                    self._queue.requeue(job.job_id, "drain")
                    self._metrics.incr("jobs_requeued")

                return "requeued", requeue
            except _Cancelled:
                return "cancelled", lambda: self._commit_cancelled(job)
            except BadRequestError as exc:
                return "failed", self._failure_commit(job, exc.to_dict())
            except Exception as exc:  # noqa: BLE001 - job isolation
                message = str(exc.args[0] if exc.args else exc) or repr(exc)
                return "failed", self._failure_commit(
                    job, error_body(message.splitlines()[0])
                )
            if job.cancel_event.is_set():
                return "cancelled", lambda: self._commit_cancelled(job)

            def complete() -> None:
                self._queue.finish(job.job_id, result=result)
                self._metrics.incr("jobs_completed")

            return "done", complete

    def _commit_cancelled(self, job: Job) -> None:
        self._queue.finish(job.job_id, cancelled=True)
        self._metrics.incr("jobs_cancelled")

    def _failure_commit(
        self, job: Job, body: dict[str, Any]
    ) -> Callable[[], None]:
        def fail() -> None:
            self._queue.finish(job.job_id, error=body)
            self._metrics.incr("jobs_failed")

        return fail

    def _write_trace(self, job: Job, tracer: Tracer) -> None:
        """Assemble and atomically persist one job's Chrome trace."""
        document = build_job_trace(
            trace_id=job.trace_id or job.job_id,
            job_id=job.job_id,
            tracer=tracer,
            pid=os.getpid(),
            submitted=job.submitted,
            started=job.started,
            finished=job.finished,
            client_submitted=job.client_submitted,
        )
        path = self.trace_path(job.job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, sort_keys=True)
        os.replace(tmp, path)
        self._metrics.incr("traces_written")

    # Execution -------------------------------------------------------------
    def _execute(self, job: Job) -> dict[str, Any]:
        if job.kind == "projection":
            return self._execute_projection(job)
        if job.kind == "batch":
            return self._execute_batch(job)
        return self._execute_sweep(job)

    def _check_interrupt(self, job: Job) -> None:
        if job.cancel_event.is_set():
            raise _Cancelled()
        if self._draining.is_set():
            raise JobInterrupted(job.job_id)

    def _execute_projection(self, job: Job) -> dict[str, Any]:
        payload = dict(job.payload)
        mode = payload.pop("mode", None)
        if mode is not None:
            if mode not in SERVING_MODES:
                raise BadRequestError(
                    f"unknown serving mode {mode!r}",
                    field="mode",
                    hint=f"one of {', '.join(SERVING_MODES)}",
                )
            if self._surrogate is None and mode != "exact":
                raise BadRequestError(
                    f"serving mode {mode!r} needs a surrogate model",
                    field="mode",
                    hint="start the daemon with --surrogate-model",
                )
        parsed = parse_objects([payload], self._base_dir)
        if parsed[0].error is not None:
            raise parsed[0].error
        if self._surrogate is not None:
            # Route every mode through the gated engine so records from
            # a surrogate daemon uniformly carry path + serving
            # provenance (mode="exact" falls back with reason
            # "requested" and the bitwise-identical engine record).
            served = self._surrogate.project(parsed[0].request, mode)
            provenance = served.provenance
            if provenance.path == "surrogate":
                self._emit(
                    "surrogate_accept",
                    job,
                    reason=provenance.reason,
                    confidence=provenance.confidence,
                )
            else:
                self._emit(
                    "surrogate_fallback",
                    job,
                    reason=provenance.reason,
                    confidence=provenance.confidence,
                )
            return {"kind": "projection", "record": served.to_dict()}
        (record,) = project_parsed(parsed, self._engine)
        return {"kind": "projection", "record": record.to_dict()}

    def _execute_batch(self, job: Job) -> dict[str, Any]:
        requests = job.payload.get("requests")
        if not isinstance(requests, list) or not requests:
            raise BadRequestError(
                "batch payload needs a non-empty 'requests' list",
                field="requests",
                hint="the same records `python -m repro batch` reads, "
                "as a JSON array",
            )
        parsed = parse_objects(requests, self._base_dir)
        records = project_parsed(
            parsed,
            self._engine,
            should_stop=job.cancel_event.is_set,
        )
        rows = [record.to_dict() for record in records]
        if job.cancel_event.is_set():
            raise _Cancelled()
        return {
            "kind": "batch",
            "records": rows,
            "summary": batch_records_summary(rows),
        }

    def _execute_sweep(self, job: Job) -> dict[str, Any]:
        """One tile per sweep point, checkpointed as it completes."""
        requests = self._sweep_requests(job.payload)
        parsed = parse_objects(requests, self._base_dir)
        checkpoint = SweepCheckpoint(
            self._queue.state_dir, job.job_id, job.fingerprint
        )
        tiles = checkpoint.load() if job.interruptions else {}
        if tiles:
            self._metrics.incr("tiles_resumed", len(tiles))
        rows: list[dict[str, Any]] = []
        for index, item in enumerate(parsed):
            if index in tiles:
                rows.append(tiles[index])
                continue
            self._check_interrupt(job)
            if item.error is not None:
                raise item.error
            with self._metrics.timer("sweep_tile"):
                (record,) = project_parsed([item], self._engine)
            row = record.to_dict()
            if not row.get("ok"):
                # A worker exception during tile scoring is isolated
                # into an error record by project_parsed — surface it in
                # the per-stage error counters and the event log too,
                # not just the job's result document.
                self._metrics.incr("sweep_tile_errors")
                self._emit(
                    "fail",
                    job,
                    scope="tile",
                    request_id=row.get("id"),
                    error=row.get("error"),
                )
            checkpoint.record(index, row)
            self._metrics.incr("tiles_checkpointed")
            rows.append(row)
        result = {
            "kind": "sweep",
            "workload": job.payload.get("workload"),
            "points": rows,
            "summary": batch_records_summary(rows),
            "resumed_tiles": len(tiles),
        }
        if "arches" in job.payload:
            result["arches"] = self._sweep_arches(job.payload)
        checkpoint.discard()
        return result

    @staticmethod
    def _sweep_arches(payload: dict[str, Any]) -> list[str]:
        """Validate and normalize a sweep payload's architecture axis.

        ``"all"`` expands to the whole registry; otherwise every entry
        must be a registry id — an unknown one fails the job with the
        structured ``{error, field, hint}`` body listing valid ids.
        """
        arches = payload.get("arches")
        if "arch" in payload:
            raise BadRequestError(
                "'arch' and 'arches' are mutually exclusive",
                field="arches",
                hint="use 'arch' for one architecture or 'arches' for "
                "an axis",
            )
        if arches == "all":
            return list(arch_ids())
        if not isinstance(arches, list) or not arches:
            raise BadRequestError(
                "'arches' must be \"all\" or a non-empty list of "
                "registry ids",
                field="arches",
                hint="`python -m repro arch list` shows the fleet",
            )
        normalized = []
        for arch_id in arches:
            name = str(arch_id).lower()
            try:
                get_arch(name)
            except UnknownArchitectureError as exc:
                raise BadRequestError(
                    str(exc), field="arches", hint=exc.hint
                ) from exc
            normalized.append(name)
        return normalized

    @classmethod
    def _sweep_requests(cls, payload: dict[str, Any]) -> list[dict[str, Any]]:
        """Expand a sweep payload into per-point request records.

        ``{"workload": W, "datasets": [...]}`` — every listed dataset
        (default: all of the workload's) becomes one tile, carrying any
        shared optional fields (``iterations``, ``arch``, ``pcie_gen``,
        ``batched_transfers``, ``cpu_ms``) through unchanged.  An
        ``arches`` axis (a list of registry ids, or ``"all"``) crosses
        the dataset axis — one tile per (architecture, dataset), ids
        ``W/label@arch`` in architecture-major order — and is mutually
        exclusive with the shared ``arch`` field.
        """
        from repro.workloads.registry import get_workload

        name = payload.get("workload")
        if not isinstance(name, str) or not name:
            raise BadRequestError(
                "sweep payload needs a 'workload' name",
                field="workload",
                hint="`python -m repro list` shows the registry",
            )
        try:
            workload = get_workload(name)
        except (KeyError, ValueError) as exc:
            raise BadRequestError(
                str(exc.args[0] if exc.args else exc),
                field="workload",
                hint="`python -m repro list` shows the registry",
            ) from exc
        labels = payload.get("datasets")
        if labels is None:
            labels = [d.label for d in workload.datasets()]
        if not isinstance(labels, list) or not labels:
            raise BadRequestError(
                "'datasets' must be a non-empty list of labels",
                field="datasets",
                hint="omit it to sweep every dataset",
            )
        shared = {
            key: payload[key]
            for key in (
                "iterations",
                "arch",
                "pcie_gen",
                "batched_transfers",
                "cpu_ms",
            )
            if key in payload
        }
        if "arches" in payload:
            return [
                {
                    "id": f"{workload.name}/{label}@{arch_id}",
                    "workload": workload.name,
                    "dataset": str(label),
                    **shared,
                    "arch": arch_id,
                }
                for arch_id in cls._sweep_arches(payload)
                for label in labels
            ]
        return [
            {
                "id": f"{workload.name}/{label}",
                "workload": workload.name,
                "dataset": str(label),
                **shared,
            }
            for label in labels
        ]


class _Cancelled(Exception):
    """Internal: the job observed its cancel event mid-run."""
