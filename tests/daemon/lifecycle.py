"""Shared check: the event log's lifecycle rows mirror the journal.

The job queue is the only emitter of lifecycle events, one per journal
append, so for every job the ``events.jsonl`` lifecycle rows must equal
its ``journal.jsonl`` transitions, mapped to event types, in order.
"""

import json
from pathlib import Path

#: A ``finish`` journal line becomes the event named by its state.
FINISH_EVENTS = {"done": "complete", "failed": "fail", "cancelled": "cancel"}

LIFECYCLE_EVENTS = ("submit", "start", "requeue", "complete", "fail", "cancel")


def _rows(path: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def _label(kind: str, reason: str | None) -> str:
    return f"requeue:{reason}" if kind == "requeue" else kind


def journal_transitions(state_dir: Path) -> dict[str, list[str]]:
    """Per job, its journal transitions as event types
    (``requeue:<reason>`` for requeues)."""
    per_job: dict[str, list[str]] = {}
    for record in _rows(Path(state_dir) / "journal.jsonl"):
        event = record["event"]
        job_id = record["job"]["id"] if event == "submit" else record["job_id"]
        kind = FINISH_EVENTS[record["state"]] if event == "finish" else event
        per_job.setdefault(job_id, []).append(
            _label(kind, record.get("reason"))
        )
    return per_job


def lifecycle_events(state_dir: Path) -> dict[str, list[str]]:
    """Per job, its lifecycle rows in ``events.jsonl`` (tile-scoped
    sweep failures are in-flight events, not transitions)."""
    per_job: dict[str, list[str]] = {}
    for record in _rows(Path(state_dir) / "events.jsonl"):
        attrs = record.get("attrs", {})
        if record["type"] not in LIFECYCLE_EVENTS or attrs.get("scope"):
            continue
        per_job.setdefault(record["job_id"], []).append(
            _label(record["type"], attrs.get("reason"))
        )
    return per_job


def assert_events_match_journal(state_dir: Path) -> dict[str, list[str]]:
    """Assert both records agree job by job; returns the transitions."""
    transitions = journal_transitions(state_dir)
    assert lifecycle_events(state_dir) == transitions
    return transitions
