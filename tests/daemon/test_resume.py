"""Checkpoint/resume equivalence: killed daemons don't lose or redo work.

Two escalating scenarios:

- **drain mid-sweep** (in-process): the scheduler observes a drain
  between tiles, checkpoints, requeues; a fresh scheduler finishes the
  job resuming from the checkpoint.
- **SIGKILL mid-sweep** (subprocess): the hard version of the same
  claim — the process dies with no cleanup after N checkpointed tiles,
  a restarted daemon replays the journal, resumes from the checkpoint,
  and the final result is byte-identical (modulo the volatile
  ``seconds``/``cached`` fields) to an uninterrupted in-process run.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.daemon.checkpoint import SweepCheckpoint
from repro.daemon.protocol import Job
from repro.daemon.queue import JobQueue
from repro.daemon.scheduler import Scheduler
from repro.gpu.arch import quadro_fx_5600
from repro.harness.context import ExperimentContext
from repro.obs.events import EventLog
from repro.service.engine import ProjectionEngine

from tests.daemon.lifecycle import assert_events_match_journal

SWEEP_PAYLOAD = {"workload": "VectorAdd"}
VOLATILE = ("seconds", "cached")


def canon(record):
    return {k: v for k, v in record.items() if k not in VOLATILE}


def make_engine():
    ctx = ExperimentContext(seed=2013)
    # No cache: resume correctness must come from the checkpoint alone.
    return ProjectionEngine(
        arch=quadro_fx_5600(), bus=ctx.bus_model, cache=None
    )


def run_sweep_to_completion(state_dir, job_id, submit=True):
    """Drive one sweep job through a fresh queue+scheduler, blocking."""
    queue = JobQueue(state_dir)
    if submit:
        queue.submit(
            Job(job_id=job_id, kind="sweep", payload=dict(SWEEP_PAYLOAD))
        )
    scheduler = Scheduler(queue, make_engine(), workers=1)
    scheduler.start()
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        job = queue.get(job_id)
        if job is not None and job.terminal:
            scheduler.drain(5.0)
            with open(queue.result_path(job_id)) as fh:
                return job, json.load(fh)
        time.sleep(0.02)
    raise TimeoutError(f"sweep {job_id} never finished")


class TestDrainMidSweep:
    def test_drain_checkpoints_and_requeues(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        events = EventLog(state / "events.jsonl")
        queue = JobQueue(state, events=events)
        queue.submit(
            Job(job_id="drainjob", kind="sweep",
                payload=dict(SWEEP_PAYLOAD))
        )
        scheduler = Scheduler(
            queue, make_engine(), workers=1, events=events
        )

        recorded = []
        original = SweepCheckpoint.record

        def record_then_drain(self, tile, row):
            original(self, tile, row)
            recorded.append(tile)
            scheduler._draining.set()  # drain lands between tiles

        monkeypatch.setattr(SweepCheckpoint, "record", record_then_drain)
        scheduler.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            job = queue.get("drainjob")
            if job.state == "queued" and job.interruptions > 0:
                break
            time.sleep(0.02)
        assert scheduler.drain(5.0)
        job = queue.get("drainjob")
        assert job.state == "queued"
        assert job.interruptions >= 1
        assert recorded == [0]  # exactly one tile before the drain
        checkpoint = SweepCheckpoint(state, "drainjob", job.fingerprint)
        assert set(checkpoint.load()) == {0}
        # One requeue call wrote the drain reason to both records.
        events.close()
        # (A worker may re-claim the job and hit the drain again before
        # the intake closes, so the start/requeue pair can repeat.)
        transitions = assert_events_match_journal(state)["drainjob"]
        assert transitions[:3] == ["submit", "start", "requeue:drain"]
        assert {t for t in transitions if t.startswith("requeue")} == {
            "requeue:drain"
        }

        monkeypatch.setattr(SweepCheckpoint, "record", original)
        finished, result = run_sweep_to_completion(
            state, "drainjob", submit=False
        )
        assert finished.state == "done"
        assert result["resumed_tiles"] == 1
        assert result["summary"]["errors"] == 0


class TestSigkillMidSweep:
    KILL_AFTER = 1

    def test_sigkill_restart_resume_equivalence(self, tmp_path):
        state = tmp_path / "state"
        script = tmp_path / "victim.py"
        script.write_text(
            f"""
import os, signal, sys, time
from pathlib import Path
from repro.daemon.checkpoint import SweepCheckpoint
from repro.daemon.protocol import Job
from repro.daemon.queue import JobQueue
from repro.daemon.scheduler import Scheduler
from repro.gpu.arch import quadro_fx_5600
from repro.harness.context import ExperimentContext
from repro.service.engine import ProjectionEngine

state = Path({str(state)!r})
original = SweepCheckpoint.record
done = [0]

def record_then_die(self, tile, row):
    original(self, tile, row)
    done[0] += 1
    if done[0] >= {self.KILL_AFTER}:
        os.kill(os.getpid(), signal.SIGKILL)

SweepCheckpoint.record = record_then_die
ctx = ExperimentContext(seed=2013)
engine = ProjectionEngine(
    arch=quadro_fx_5600(), bus=ctx.bus_model, cache=None
)
queue = JobQueue(state)
queue.submit(
    Job(job_id="killjob", kind="sweep",
        payload={json.dumps(SWEEP_PAYLOAD)})
)
scheduler = Scheduler(queue, engine, workers=1)
scheduler.start()
time.sleep(120)  # SIGKILL arrives long before this
""",
            encoding="utf-8",
        )
        src = Path(__file__).resolve().parents[2] / "src"
        process = subprocess.run(
            [sys.executable, str(script)],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr

        # The checkpoint holds exactly the tiles finished pre-kill.
        job_after = JobQueue(state).get("killjob")
        assert job_after.state == "queued"  # replay recovered it
        assert job_after.interruptions == 1
        checkpoint = SweepCheckpoint(
            state, "killjob", job_after.fingerprint
        )
        assert len(checkpoint.load()) == self.KILL_AFTER

        # Restart: a fresh queue+scheduler on the same state dir.
        finished, resumed = run_sweep_to_completion(
            state, "killjob", submit=False
        )
        assert finished.state == "done"
        assert resumed["resumed_tiles"] == self.KILL_AFTER

        # Reference: the same sweep, uninterrupted, in a clean dir.
        _, reference = run_sweep_to_completion(
            tmp_path / "reference", "refjob"
        )
        assert reference["resumed_tiles"] == 0
        assert len(resumed["points"]) == len(reference["points"])
        for resumed_row, reference_row in zip(
            resumed["points"], reference["points"]
        ):
            assert json.dumps(
                canon(resumed_row), sort_keys=True
            ) == json.dumps(canon(reference_row), sort_keys=True)
