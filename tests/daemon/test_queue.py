"""Tests for the persistent job queue: journal, replay, fairness."""

import json
import threading

import pytest

from repro.daemon.protocol import Job
from repro.daemon.queue import JOURNAL_NAME, JobQueue


def make_job(job_id="j1", kind="projection", client="anonymous", **payload):
    payload = payload or {"workload": "VectorAdd"}
    return Job(job_id=job_id, kind=kind, payload=payload, client=client)


class TestBasicLifecycle:
    def test_submit_claim_finish(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        job = queue.claim(timeout=0.1)
        assert job is not None and job.state == "running"
        queue.finish(job.job_id, result={"x": 1})
        assert queue.get(job.job_id).state == "done"
        with open(queue.result_path(job.job_id)) as fh:
            assert json.load(fh) == {"x": 1}

    def test_failed_job_records_error(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        job = queue.claim(timeout=0.1)
        queue.finish(job.job_id, error={"error": "boom"})
        job = queue.get(job.job_id)
        assert job.state == "failed"
        assert job.error == {"error": "boom"}

    def test_claim_times_out_empty(self, tmp_path):
        assert JobQueue(tmp_path).claim(timeout=0.05) is None

    def test_duplicate_id_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        with pytest.raises(ValueError, match="duplicate"):
            queue.submit(make_job())

    def test_fifo_order(self, tmp_path):
        queue = JobQueue(tmp_path, max_running_per_client=3)
        for index in range(3):
            queue.submit(make_job(f"j{index}"))
        claimed = [queue.claim(timeout=0.1).job_id for _ in range(3)]
        assert claimed == ["j0", "j1", "j2"]

    def test_counts_cover_every_state(self, tmp_path):
        queue = JobQueue(tmp_path)
        assert queue.counts() == {
            "queued": 0,
            "running": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
        }


class TestPerClientFairness:
    def test_saturated_client_is_skipped(self, tmp_path):
        queue = JobQueue(tmp_path, max_running_per_client=1)
        queue.submit(make_job("a1", client="alice"))
        queue.submit(make_job("a2", client="alice"))
        queue.submit(make_job("b1", client="bob"))
        first = queue.claim(timeout=0.1)
        assert first.job_id == "a1"
        # alice is at her limit: bob's job jumps her second one.
        second = queue.claim(timeout=0.1)
        assert second.job_id == "b1"
        assert queue.claim(timeout=0.05) is None
        queue.finish("a1", result={})
        assert queue.claim(timeout=0.1).job_id == "a2"


class TestCancellation:
    def test_cancel_queued_is_immediate(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        job = queue.cancel("j1")
        assert job.state == "cancelled"
        assert queue.claim(timeout=0.05) is None

    def test_cancel_running_sets_the_event(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        job = queue.claim(timeout=0.1)
        assert not job.cancel_event.is_set()
        queue.cancel(job.job_id)
        assert job.cancel_event.is_set()
        assert queue.get(job.job_id).state == "running"

    def test_cancel_terminal_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        queue.claim(timeout=0.1)
        queue.finish("j1", result={})
        assert queue.cancel("j1").state == "done"

    def test_cancel_unknown_raises(self, tmp_path):
        with pytest.raises(KeyError):
            JobQueue(tmp_path).cancel("nope")


class TestDurability:
    def test_restart_replays_the_journal(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job("done1"))
        queue.submit(make_job("waiting"))
        job = queue.claim(timeout=0.1)
        queue.finish(job.job_id, result={"x": 1})

        revived = JobQueue(tmp_path)
        assert revived.get("done1").state == "done"
        assert revived.get("waiting").state == "queued"
        assert revived.claim(timeout=0.1).job_id == "waiting"

    def test_running_job_recovers_as_queued(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        queue.claim(timeout=0.1)
        # Simulated crash: no finish event ever lands.
        revived = JobQueue(tmp_path)
        job = revived.get("j1")
        assert job.state == "queued"
        assert job.interruptions == 1
        assert revived.recovered_jobs == ("j1",)

    def test_recovery_is_itself_journaled(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        queue.claim(timeout=0.1)
        JobQueue(tmp_path)  # first recovery writes the requeue event
        third = JobQueue(tmp_path)
        # Second restart replays the requeue: not "recovered" again.
        assert third.recovered_jobs == ()
        assert third.get("j1").interruptions == 1

    def test_torn_tail_line_is_ignored(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job())
        with open(tmp_path / JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"format": 1, "event": "fin')  # crash mid-append
        revived = JobQueue(tmp_path)
        assert revived.get("j1").state == "queued"

    def test_requeue_preserves_queue_position(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(make_job("first"))
        queue.submit(make_job("second"))
        job = queue.claim(timeout=0.1)
        queue.requeue(job.job_id, "drain")
        assert queue.get("first").interruptions == 1
        assert queue.claim(timeout=0.1).job_id == "first"


class TestShutdown:
    def test_close_intake_refuses_submissions(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.close_intake()
        with pytest.raises(RuntimeError, match="closed"):
            queue.submit(make_job())

    def test_close_intake_unblocks_waiting_claimers(self, tmp_path):
        queue = JobQueue(tmp_path)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(queue.claim(timeout=5.0))
        )
        thread.start()
        queue.close_intake()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert results == [None]
