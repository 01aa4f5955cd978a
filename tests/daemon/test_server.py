"""Daemon HTTP lifecycle tests: protocol round trip, rate limiting,
concurrent clients, cancellation, metrics, drain.

The round-trip test is the daemon's core contract: a batch submitted
over HTTP must produce the very records ``run_batch`` writes in-process
— byte-identical after stripping the two volatile fields (``seconds``,
wall time; ``cached``, which depends on cache history).
"""

import json
import threading
from contextlib import contextmanager

import pytest

from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.server import (
    DaemonApp,
    DaemonServer,
    read_endpoint_file,
    write_endpoint_file,
)
from repro.gpu.arch import quadro_fx_5600
from repro.harness.context import ExperimentContext
from repro.obs.prometheus import parse_exposition
from repro.service.engine import ProjectionEngine
from repro.service.jobs import run_batch

REQUESTS = [
    {"workload": "VectorAdd", "dataset": "4M"},
    {"workload": "VectorAdd", "dataset": "16M"},
    {"workload": "HotSpot", "dataset": "64 x 64", "iterations": 3},
    {"workload": "NoSuchWorkload", "dataset": "x"},  # isolated error
]

#: Fields that legitimately differ between runs of identical work.
VOLATILE = ("seconds", "cached")


def canon(record):
    return {k: v for k, v in record.items() if k not in VOLATILE}


@contextmanager
def running_daemon(state_dir, **app_options):
    app = DaemonApp(state_dir, **app_options)
    server = DaemonServer(app)
    server.serve_in_thread()
    try:
        yield app, server, DaemonClient(base_url=server.url)
    finally:
        server.stop()


class TestRoundTrip:
    def test_batch_matches_in_process_run_batch(self, tmp_path):
        requests_path = tmp_path / "requests.jsonl"
        with open(requests_path, "w", encoding="utf-8") as fh:
            for record in REQUESTS:
                fh.write(json.dumps(record) + "\n")
        ctx = ExperimentContext(seed=2013)
        engine = ProjectionEngine(
            arch=quadro_fx_5600(), bus=ctx.bus_model, cache=None
        )
        direct = run_batch(requests_path, engine=engine)
        direct_rows = [r.to_dict() for r in direct.records]

        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit("batch", {"requests": REQUESTS})
            body = client.wait(submitted["id"], timeout=120)
        assert body["state"] == "done"
        daemon_rows = body["result"]["records"]

        assert len(daemon_rows) == len(direct_rows)
        for daemon_row, direct_row in zip(daemon_rows, direct_rows):
            assert json.dumps(
                canon(daemon_row), sort_keys=True
            ) == json.dumps(canon(direct_row), sort_keys=True)
        summary = body["result"]["summary"]
        assert summary["total"] == len(REQUESTS)
        assert summary["ok"] == direct.ok_count
        assert summary["errors"] == direct.error_count

    def test_projection_round_trip(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            body = client.wait(submitted["id"], timeout=60)
        assert body["state"] == "done"
        record = body["result"]["record"]
        assert record["ok"]
        assert record["total_seconds"] > 0
        assert record["projection"]["kernel_seconds"] > 0

    def test_results_survive_restart(self, tmp_path):
        state = tmp_path / "state"
        with running_daemon(state) as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            first = client.wait(submitted["id"], timeout=60)
        with running_daemon(state) as (_, _, client):
            again = client.result(submitted["id"])
        assert again == first


class TestValidation:
    def test_bad_submission_is_400_with_structure(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            with pytest.raises(DaemonError) as excinfo:
                client.submit("mystery", {})
        assert excinfo.value.status == 400
        assert excinfo.value.body["field"] == "kind"

    def test_unknown_job_is_404(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            with pytest.raises(DaemonError) as excinfo:
                client.job("nope")
        assert excinfo.value.status == 404

    def test_pending_result_is_409_with_state(self, tmp_path):
        with running_daemon(
            tmp_path / "state", workers=1
        ) as (app, _, client):
            # Stall the single worker so the probe job stays queued.
            blocker = client.submit(
                "batch",
                {"requests": [{"workload": "VectorAdd"}] * 3},
            )
            probe = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            try:
                client.result(probe["id"])
            except DaemonError as exc:
                assert exc.status == 409
                assert exc.body["state"] in ("queued", "running")
            else:
                # Scheduler can be fast enough to finish both; fine.
                pass
            client.wait(blocker["id"], timeout=60)
            client.wait(probe["id"], timeout=60)

    def test_bad_workload_fails_job_with_structure(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "NoSuchWorkload"}
            )
            body = client.wait(submitted["id"], timeout=30)
        assert body["state"] == "failed"
        assert body["error"]["field"] == "workload"
        assert "hint" in body["error"]


class TestRateLimiting:
    def test_burst_exhaustion_is_429(self, tmp_path):
        with running_daemon(
            tmp_path / "state", rate=0.001, burst=2
        ) as (_, _, client):
            client.submit("projection", {"workload": "VectorAdd"})
            client.submit("projection", {"workload": "VectorAdd"})
            with pytest.raises(DaemonError) as excinfo:
                client.submit("projection", {"workload": "VectorAdd"})
        assert excinfo.value.status == 429
        body = excinfo.value.body
        assert body["retry_after_seconds"] > 0
        assert "rate limit" in body["error"]

    def test_limits_are_per_client(self, tmp_path):
        with running_daemon(
            tmp_path / "state", rate=0.001, burst=1
        ) as (_, _, client):
            client.submit(
                "projection", {"workload": "VectorAdd"}, client="alice"
            )
            with pytest.raises(DaemonError):
                client.submit(
                    "projection", {"workload": "VectorAdd"}, client="alice"
                )
            # bob's bucket is untouched.
            client.submit(
                "projection", {"workload": "VectorAdd"}, client="bob"
            )

    def test_rejections_are_counted(self, tmp_path):
        with running_daemon(
            tmp_path / "state", rate=0.001, burst=1
        ) as (app, _, client):
            client.submit("projection", {"workload": "VectorAdd"})
            with pytest.raises(DaemonError):
                client.submit("projection", {"workload": "VectorAdd"})
            snapshot = app.engine.metrics.snapshot()
        assert snapshot["counters"]["rate_limited"] == 1


class TestConcurrentClients:
    def test_many_clients_all_complete(self, tmp_path):
        jobs_per_client = 3
        clients = ("alice", "bob", "carol")
        with running_daemon(
            tmp_path / "state", workers=4
        ) as (_, _, client):
            ids = []
            lock = threading.Lock()

            def submit_for(name):
                for _ in range(jobs_per_client):
                    submitted = client.submit(
                        "projection",
                        {"workload": "VectorAdd", "dataset": "4M"},
                        client=name,
                    )
                    with lock:
                        ids.append(submitted["id"])

            threads = [
                threading.Thread(target=submit_for, args=(name,))
                for name in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            bodies = [client.wait(i, timeout=120) for i in ids]
            status = client.status()
        assert len(ids) == len(clients) * jobs_per_client
        assert all(body["state"] == "done" for body in bodies)
        assert status["queue"]["done"] == len(ids)
        # Identical payloads: every record is byte-identical mod volatile.
        records = [body["result"]["record"] for body in bodies]
        baseline = canon(records[0])
        assert all(canon(record) == baseline for record in records)


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        with running_daemon(
            tmp_path / "state", workers=1
        ) as (_, _, client):
            blocker = client.submit(
                "batch", {"requests": [{"workload": "VectorAdd"}] * 2}
            )
            victim = client.submit(
                "projection", {"workload": "VectorAdd"}
            )
            status = client.cancel(victim["id"])
            # Either we won the race (cancelled) or it already ran.
            assert status["state"] in ("cancelled", "running", "done")
            client.wait(blocker["id"], timeout=60)
            final = client.wait(victim["id"], timeout=60)
            assert final["state"] in ("cancelled", "done")


class TestObservability:
    def test_metrics_endpoint_parses_and_has_gauges(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            client.wait(submitted["id"], timeout=60)
            text = client.metrics_text()
        samples = {name: value for name, _, value in parse_exposition(text)}
        assert samples["repro_jobs_submitted_total"] == 1
        assert samples["repro_jobs_completed_total"] == 1
        assert "repro_queue_depth" in samples
        assert "repro_jobs_running" in samples
        assert "repro_uptime_seconds" in samples

    def test_metrics_export_the_plan_store(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            client.wait(submitted["id"], timeout=60)
            text = client.metrics_text()
        samples = {name: value for name, _, value in parse_exposition(text)}
        assert samples["repro_plan_store_entries"] >= 1
        assert samples["repro_plan_store_bytes"] > 0
        lookups = (
            samples["repro_plan_store_hits"]
            + samples["repro_plan_store_misses"]
        )
        assert lookups >= 1

    def test_queue_wait_histogram_feeds_timers(self, tmp_path):
        with running_daemon(tmp_path / "state") as (app, _, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            client.wait(submitted["id"], timeout=60)
            snapshot = app.engine.metrics.snapshot()
        assert "queue_wait" in snapshot["timers"]
        assert "job_run" in snapshot["timers"]
        assert snapshot["timers"]["job_run"]["calls"] == 1

    def test_health_version_status(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, server, client):
            assert client.healthy()
            version = client.version()
            assert version["protocol"] == 1
            status = client.status()
            assert status["workers"] == 2
            assert status["draining"] is False
            write_endpoint_file(server.app.state_dir, server)
            record = read_endpoint_file(server.app.state_dir)
            assert record["url"] == server.url
            # state_dir-based discovery reaches the same daemon.
            discovered = DaemonClient(state_dir=server.app.state_dir)
            assert discovered.healthy()


class TestDrain:
    def test_draining_rejects_submissions_with_503(self, tmp_path):
        app = DaemonApp(tmp_path / "state")
        server = DaemonServer(app)
        server.serve_in_thread()
        client = DaemonClient(base_url=server.url)
        try:
            assert server.stop() is True
            status, body = app.submit(
                {"kind": "projection", "payload": {}}
            )
            assert status == 503
            assert "draining" in body["error"]
        finally:
            server.httpd.server_close()

    def test_clean_drain_with_idle_workers(self, tmp_path):
        with running_daemon(tmp_path / "state") as (app, server, client):
            submitted = client.submit(
                "projection", {"workload": "VectorAdd", "dataset": "4M"}
            )
            client.wait(submitted["id"], timeout=60)
        # running_daemon's finally ran server.stop(); workers joined.
        assert app.queue.counts()["running"] == 0
