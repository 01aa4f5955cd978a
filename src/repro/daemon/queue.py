"""The persistent job queue: an append-only journal under ``state_dir``.

Every state transition appends one JSON line to
``<state_dir>/journal.jsonl``; the full queue state is a pure function
of the journal, so a daemon restart replays it and carries on.  Jobs
that were ``running`` when the process died (crash, SIGKILL) replay
back to ``queued`` with their ``interruptions`` counter bumped — the
scheduler then resumes them (sweeps from their checkpoint).

Given an :class:`~repro.obs.events.EventLog`, the queue is also the one
emitter of job lifecycle events: every journal append emits its event
(``submit``, ``start``, ``requeue``, ``complete``/``fail``/``cancel``)
under the queue lock, so the event log lists each job's transitions in
journal order.

Result documents live next to the journal in
``<state_dir>/results/<job_id>.json`` and are written *before* the
``finish`` journal event, so a ``done`` journal entry always has a
readable result.

The queue is thread-safe; workers block in :meth:`claim` on a condition
variable.  Per-client fairness is enforced here too: a client may have
at most ``max_running_per_client`` jobs running at once, and queued
jobs of a saturated client are skipped (not reordered) until one of its
running jobs finishes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.daemon.protocol import (
    CANCELLED,
    DONE,
    FAILED,
    PROTOCOL_VERSION,
    QUEUED,
    RUNNING,
    Job,
)
from repro.obs.events import EventLog

JOURNAL_NAME = "journal.jsonl"
RESULTS_DIR = "results"


class JobQueue:
    """Durable FIFO of :class:`~repro.daemon.protocol.Job` records."""

    def __init__(
        self,
        state_dir: str | Path,
        max_running_per_client: int = 2,
        clock: Callable[[], float] = time.time,
        events: EventLog | None = None,
    ) -> None:
        """``events`` receives one lifecycle event per journal line."""
        if max_running_per_client < 1:
            raise ValueError(
                f"max_running_per_client must be >= 1, got "
                f"{max_running_per_client}"
            )
        self._state_dir = Path(state_dir)
        self._state_dir.mkdir(parents=True, exist_ok=True)
        (self._state_dir / RESULTS_DIR).mkdir(exist_ok=True)
        self._journal_path = self._state_dir / JOURNAL_NAME
        self._max_per_client = max_running_per_client
        self._clock = clock
        self._events = events
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # submission order
        self._seq = 0
        self._closed = False
        self._recovered = self._replay()

    # Properties ----------------------------------------------------------
    @property
    def state_dir(self) -> Path:
        return self._state_dir

    @property
    def recovered_jobs(self) -> tuple[str, ...]:
        """Ids of jobs found mid-run at startup and requeued."""
        return self._recovered

    # Journal -------------------------------------------------------------
    def _append(self, event: str, job: Job, **fields: Any) -> None:
        """Journal one transition of ``job``, then emit its lifecycle
        event (caller holds the lock).

        A ``submit`` line carries the whole job record; every other
        line names the job by id.
        """
        self._seq += 1
        record = {
            "format": PROTOCOL_VERSION,
            "seq": self._seq,
            "event": event,
            "at": self._clock(),
            **fields,
        }
        if event == "submit":
            record["job"] = job.to_dict()
        else:
            record["job_id"] = job.job_id
        with open(self._journal_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if self._events is not None:
            kind, attrs = _lifecycle_event(event, job, fields)
            self._events.emit(
                kind,
                job_id=job.job_id,
                trace_id=job.trace_id,
                client=job.client,
                **attrs,
            )

    def _replay(self) -> tuple[str, ...]:
        """Rebuild state from the journal; requeue interrupted jobs.

        Torn tail lines (a crash mid-append) are ignored; every earlier
        line was fsynced, so the journal never lies about completed
        transitions.
        """
        if not self._journal_path.is_file():
            return ()
        with open(self._journal_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line
            event = record.get("event")
            self._seq = max(self._seq, int(record.get("seq", 0)))
            if event == "submit":
                job = Job.from_dict(record["job"])
                job.state = QUEUED
                self._jobs[job.job_id] = job
                self._order.append(job.job_id)
                continue
            job = self._jobs.get(str(record.get("job_id", "")))
            if job is None:
                continue
            if event == "start":
                job.state = RUNNING
                job.started = record.get("at")
            elif event == "finish":
                job.state = str(record.get("state", DONE))
                job.finished = record.get("at")
                job.error = record.get("error")
            elif event == "cancel":
                job.state = CANCELLED
                job.finished = record.get("at")
            elif event == "requeue":
                job.state = QUEUED
                job.started = None
                job.interruptions = int(
                    record.get("interruptions", job.interruptions + 1)
                )
        recovered = []
        for job in self._jobs.values():
            if job.state == RUNNING:
                job.state = QUEUED
                job.started = None
                job.interruptions += 1
                self._append(
                    "requeue",
                    job,
                    interruptions=job.interruptions,
                    reason="recovered",
                )
                recovered.append(job.job_id)
        return tuple(recovered)

    # Submission / claiming ------------------------------------------------
    def submit(self, job: Job) -> Job:
        """Enqueue ``job`` durably and wake one worker."""
        with self._not_empty:
            if self._closed:
                raise RuntimeError("queue is closed to new work")
            if job.job_id in self._jobs:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            job.state = QUEUED
            job.submitted = self._clock()
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
            self._append("submit", job)
            self._not_empty.notify()
        return job

    def _client_running(self, client: str) -> int:
        return sum(
            1
            for job in self._jobs.values()
            if job.state == RUNNING and job.client == client
        )

    def _next_eligible(self) -> Job | None:
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state != QUEUED:
                continue
            if self._client_running(job.client) >= self._max_per_client:
                continue
            return job
        return None

    def claim(self, timeout: float | None = None) -> Job | None:
        """Atomically take the next eligible queued job, or None.

        Blocks up to ``timeout`` seconds (forever when None) for work
        to arrive; returns None on timeout or once the queue is closed
        to claiming (shutdown).
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._not_empty:
            while True:
                if self._closed:
                    return None
                job = self._next_eligible()
                if job is not None:
                    job.state = RUNNING
                    job.started = self._clock()
                    job.cancel_event = threading.Event()
                    self._append("start", job)
                    return job
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)

    # Completion -----------------------------------------------------------
    def result_path(self, job_id: str) -> Path:
        return self._state_dir / RESULTS_DIR / f"{job_id}.json"

    def finish(
        self,
        job_id: str,
        result: dict[str, Any] | None = None,
        error: dict[str, Any] | None = None,
        cancelled: bool = False,
    ) -> Job:
        """Mark a running job done/failed/cancelled, result first."""
        if result is not None:
            path = self.result_path(job_id)
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(result, fh, sort_keys=True)
            os.replace(tmp, path)
        with self._not_empty:
            job = self._jobs[job_id]
            if cancelled:
                job.state = CANCELLED
            else:
                job.state = FAILED if error is not None else DONE
            job.finished = self._clock()
            job.error = error
            self._append("finish", job, state=job.state, error=error)
            # A slot freed up for this client; wake a waiting worker.
            self._not_empty.notify()
        return job

    def requeue(self, job_id: str, reason: str) -> Job:
        """Put an interrupted running job back at its queue position.

        ``reason`` (``"drain"``, ``"shutdown"``) goes to the journal and
        the lifecycle event alike.
        """
        with self._not_empty:
            job = self._jobs[job_id]
            job.state = QUEUED
            job.started = None
            job.interruptions += 1
            self._append(
                "requeue",
                job,
                interruptions=job.interruptions,
                reason=reason,
            )
            self._not_empty.notify()
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued ones immediately, running cooperatively.

        A running job's cancel event is set; the scheduler observes it
        between records/tiles and finishes the job as ``cancelled``.
        Terminal jobs are returned unchanged (cancel is idempotent).
        """
        with self._not_empty:
            job = self._jobs[job_id]
            if job.terminal:
                return job
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = self._clock()
                self._append("cancel", job)
            else:
                job.cancel_event.set()
        return job

    # Shutdown -------------------------------------------------------------
    def close_intake(self) -> None:
        """Refuse new submissions and unblock idle workers."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # Introspection ---------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def depth(self) -> int:
        """Queued (not yet running) job count."""
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state == QUEUED
            )

    def running(self) -> list[Job]:
        with self._lock:
            return [
                j for j in self._jobs.values() if j.state == RUNNING
            ]

    def counts(self) -> dict[str, int]:
        """Job count per state (every state present, zeros included)."""
        from repro.daemon.protocol import JOB_STATES

        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def __iter__(self) -> Iterator[Job]:  # pragma: no cover - convenience
        return iter(self.jobs())


def _lifecycle_event(
    event: str, job: Job, fields: dict[str, Any]
) -> tuple[str, dict[str, Any]]:
    """The event-log type and attrs of one journal transition."""
    if event == "submit":
        return "submit", {"kind": job.kind, "traced": job.trace}
    if event == "start":
        return "start", {
            "kind": job.kind,
            "queue_wait_seconds": job.queue_wait(),
            "interruptions": job.interruptions,
        }
    if event == "requeue":
        return "requeue", {
            "reason": fields["reason"],
            "interruptions": job.interruptions,
        }
    if event == "finish" and job.state == DONE:
        run = None
        if job.finished is not None and job.started is not None:
            run = max(0.0, job.finished - job.started)
        return "complete", {"kind": job.kind, "run_seconds": run}
    if event == "finish" and job.state == FAILED:
        return "fail", {"error": (job.error or {}).get("error")}
    return "cancel", {}
