"""Daemon observability v2: traces, events, SLO, audit-driven health.

The headline test here is the concurrency contract: a daemon with four
workers running a mix of exact and surrogate projection jobs must
produce one well-formed Chrome trace *per request* — every span tagged
with that job's trace_id, parent/child nesting intact, and no span from
one request leaking into another's trace.
"""

import json
from types import SimpleNamespace

import pytest

from repro.daemon.client import DaemonClient, DaemonError
from repro.daemon.protocol import Job
from repro.daemon.server import DaemonApp, DaemonServer
from repro.gpu.arch import quadro_fx_5600
from repro.obs.context import validate_chrome_trace
from repro.obs.prometheus import parse_exposition
from repro.obs.slo import SLOConfig
from repro.surrogate.dataset import generate_training_set
from repro.surrogate.model import train_surrogate
from repro.surrogate.store import save_model
from repro.transform.space import TransformationSpace
from repro.workloads.registry import get_workload

from tests.daemon.lifecycle import assert_events_match_journal
from tests.daemon.test_server import running_daemon

PAYLOAD = {"workload": "VectorAdd", "dataset": "4M"}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    training = generate_training_set(
        quadro_fx_5600(),
        TransformationSpace.default(),
        workloads=tuple(
            get_workload(name)
            for name in ("HotSpot", "VectorAdd", "SRAD")
        ),
        sizes_per_kernel=12,
    )
    model = train_surrogate(
        training, quadro_fx_5600(), TransformationSpace.default()
    )
    return save_model(
        model, tmp_path_factory.mktemp("model") / "surrogate.npz"
    )


class TestTraceEndpoint:
    def test_traced_job_yields_a_validated_chrome_trace(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", dict(PAYLOAD), trace=True
            )
            assert submitted["trace_id"]
            client.wait(submitted["id"], timeout=120)
            document = client.trace(submitted["id"])
        assert document["trace_id"] == submitted["trace_id"]
        assert validate_chrome_trace(document) >= 3
        names = [event["name"] for event in document["traceEvents"]]
        # Client-submit and queue-dwell stitched before worker spans.
        assert "client-submit" in names
        assert "queue-dwell" in names
        assert "job" in names
        assert "project" in names

    def test_trace_nesting_survives_the_daemon(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", dict(PAYLOAD), trace=True
            )
            client.wait(submitted["id"], timeout=120)
            document = client.trace(submitted["id"])
        by_name = {
            event["name"]: event for event in document["traceEvents"]
        }
        job = by_name["job"]
        assert "parent_id" not in job["args"]
        assert (
            by_name["project"]["args"]["parent_id"]
            == job["args"]["span_id"]
        )

    def test_client_trace_id_propagates_end_to_end(self, tmp_path):
        state = tmp_path / "state"
        with running_daemon(state) as (_, _, client):
            submitted = client.submit(
                "projection",
                dict(PAYLOAD),
                trace=True,
                trace_id="my-request-001",
            )
            assert submitted["trace_id"] == "my-request-001"
            client.wait(submitted["id"], timeout=120)
            document = client.trace(submitted["id"])
            events = client.events(limit=500)["events"]
        assert document["trace_id"] == "my-request-001"
        assert all(
            event["args"]["trace_id"] == "my-request-001"
            for event in document["traceEvents"]
        )
        assert {
            event["job_id"]
            for event in events
            if event.get("trace_id") == "my-request-001"
        } == {submitted["id"]}
        assert_events_match_journal(state)

    def test_untraced_job_404s_with_a_hint(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit("projection", dict(PAYLOAD))
            client.wait(submitted["id"], timeout=120)
            with pytest.raises(DaemonError) as excinfo:
                client.trace(submitted["id"])
        assert excinfo.value.status == 404
        assert "not traced" in str(excinfo.value)

    def test_unknown_job_404s(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            with pytest.raises(DaemonError) as excinfo:
                client.trace("nope")
        assert excinfo.value.status == 404

    def test_pending_job_409s(self, tmp_path):
        # Handler-level: a queued traced job (no scheduler running yet)
        # answers 409 with its current state.
        app = DaemonApp(tmp_path / "state", workers=1)
        status, body = app.submit(
            {"kind": "projection", "payload": dict(PAYLOAD),
             "trace": True}
        )
        assert status == 200
        status, body = app.job_trace(body["id"])
        assert status == 409
        assert body["state"] == "queued"

    def test_bad_trace_context_rejected(self, tmp_path):
        app = DaemonApp(tmp_path / "state", workers=1)
        status, body = app.submit(
            {"kind": "projection", "payload": dict(PAYLOAD),
             "trace_id": 123}
        )
        assert status == 400
        assert body["field"] == "trace_id"
        status, body = app.submit(
            {"kind": "projection", "payload": dict(PAYLOAD),
             "trace_id": "x" * 65}
        )
        assert status == 400
        status, body = app.submit(
            {"kind": "projection", "payload": dict(PAYLOAD),
             "client_submitted": "yesterday"}
        )
        assert status == 400
        assert body["field"] == "client_submitted"


class TestConcurrentTraces:
    def test_four_workers_mixed_serving_one_trace_per_request(
        self, tmp_path, model_path
    ):
        """The no-leakage contract under real worker concurrency."""
        with running_daemon(
            tmp_path / "state",
            workers=4,
            surrogate_model=model_path,
            audit_rate=0,
        ) as (_, _, client):
            submissions = []
            for index in range(8):
                mode = "exact" if index % 2 else "surrogate"
                submitted = client.submit(
                    "projection",
                    dict(PAYLOAD, mode=mode),
                    client=f"client-{index % 3}",
                    trace=True,
                )
                submissions.append((submitted, mode))
            documents = []
            for submitted, mode in submissions:
                client.wait(submitted["id"], timeout=300)
                documents.append(
                    (client.trace(submitted["id"]), submitted, mode)
                )

        for document, submitted, mode in documents:
            validate_chrome_trace(document)
            assert document["trace_id"] == submitted["trace_id"]
            assert document["job_id"] == submitted["id"]
            # Every span tagged with this request's trace id — the
            # validator enforces it, but the point of this test is
            # leakage, so assert it explicitly.
            assert all(
                event["args"]["trace_id"] == submitted["trace_id"]
                for event in document["traceEvents"]
            )
            jobs = [
                event
                for event in document["traceEvents"]
                if event["name"] == "job"
            ]
            assert len(jobs) == 1  # exactly one root span per trace
            assert jobs[0]["args"]["job"] == submitted["id"]
            names = {e["name"] for e in document["traceEvents"]}
            assert {"client-submit", "queue-dwell", "job", "serve"} <= names
            by_name = {e["name"]: e for e in document["traceEvents"]}
            # Every request through a surrogate daemon runs the gated
            # engine, so its serve-or-fallback span nests under job.
            serve = by_name["serve"]
            assert serve["args"]["parent_id"] == jobs[0]["args"]["span_id"]
            if mode == "exact":
                # The fallback runs the full pipeline under the serve
                # span; nesting must survive worker concurrency.
                assert serve["args"]["path"] == "exact"
                assert (
                    by_name["project"]["args"]["parent_id"]
                    == serve["args"]["span_id"]
                )
            else:
                assert serve["args"]["path"] == "surrogate"


class TestEventsEndpoint:
    def test_lifecycle_events_in_order_with_follower_protocol(
        self, tmp_path
    ):
        state = tmp_path / "state"
        with running_daemon(state) as (_, _, client):
            submitted = client.submit(
                "projection", dict(PAYLOAD), client="alice"
            )
            client.wait(submitted["id"], timeout=120)
            body = client.events(limit=100)
            assert body["last_seq"] >= 3
            # The follower protocol: nothing re-delivers after last_seq.
            assert client.events(after=body["last_seq"])["events"] == []
        assert submitted["id"] in assert_events_match_journal(state)
        submit_event = next(
            event
            for event in body["events"]
            if event["type"] == "submit"
        )
        assert submit_event["client"] == "alice"
        assert submit_event["trace_id"]

    def test_queued_cancel_emits_cancel_event(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        app = DaemonApp(state, workers=1)
        # No workers: the job is still queued when the cancel lands.
        monkeypatch.setattr(app.scheduler, "start", lambda: None)
        server = DaemonServer(app)
        server.serve_in_thread()
        try:
            client = DaemonClient(base_url=server.url)
            job_id = client.submit("projection", dict(PAYLOAD))["id"]
            assert client.cancel(job_id)["state"] == "cancelled"
            events = client.events(limit=100)["events"]
        finally:
            server.stop()
        assert [(e["type"], e["job_id"]) for e in events] == [
            ("submit", job_id),
            ("cancel", job_id),
        ]
        assert assert_events_match_journal(state)[job_id] == [
            "submit", "cancel"
        ]

    def test_failed_job_emits_fail_event(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "NoSuchWorkload"}
            )
            body = client.wait(submitted["id"], timeout=120)
            assert body["state"] == "failed"
            events = client.events(limit=100)["events"]
        fails = [
            event for event in events if event["type"] == "fail"
        ]
        assert len(fails) == 1
        assert fails[0]["job_id"] == submitted["id"]
        assert "error" in fails[0]["attrs"]

    def test_events_survive_on_disk_as_jsonl(self, tmp_path):
        state = tmp_path / "state"
        with running_daemon(state) as (_, _, client):
            submitted = client.submit("projection", dict(PAYLOAD))
            client.wait(submitted["id"], timeout=120)
        lines = (state / "events.jsonl").read_text().splitlines()
        types = [json.loads(line)["type"] for line in lines]
        assert "submit" in types and "complete" in types


class TestSweepTileErrors:
    def test_tile_error_increments_counter_and_emits_fail(
        self, tmp_path, monkeypatch
    ):
        import repro.daemon.scheduler as scheduler_module

        real = scheduler_module.project_parsed
        bad = SimpleNamespace(
            to_dict=lambda: {
                "id": "VectorAdd/4M",
                "ok": False,
                "error": "injected tile failure",
            }
        )
        calls = {"n": 0}

        def flaky(parsed, engine, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return [bad]
            return real(parsed, engine, **kwargs)

        monkeypatch.setattr(
            scheduler_module, "project_parsed", flaky
        )
        with running_daemon(tmp_path / "state") as (app, _, client):
            submitted = client.submit(
                "sweep",
                {"workload": "VectorAdd", "datasets": ["4M", "16M"]},
            )
            body = client.wait(submitted["id"], timeout=300)
            assert body["state"] == "done"
            counters = app.engine.metrics.snapshot()["counters"]
            events = client.events(limit=200)["events"]
        assert counters["sweep_tile_errors"] == 1
        tile_fails = [
            event
            for event in events
            if event["type"] == "fail"
            and event.get("attrs", {}).get("scope") == "tile"
        ]
        assert len(tile_fails) == 1
        assert tile_fails[0]["job_id"] == submitted["id"]
        assert tile_fails[0]["attrs"]["request_id"] == "VectorAdd/4M"


class TestSLOEndpoint:
    def test_slo_body_reflects_finished_jobs(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit("projection", dict(PAYLOAD))
            client.wait(submitted["id"], timeout=120)
            body = client.slo()
        assert body["health"] == "ok"
        assert body["audit"] is None  # no surrogate, no auditor
        slo = body["slo"]
        assert slo["window_jobs"] >= 1
        assert slo["error_burn_rate"] == 0.0
        assert slo["ok"] is True

    def test_failures_raise_the_error_burn(self, tmp_path):
        config = SLOConfig(error_budget=0.01)
        with running_daemon(
            tmp_path / "state", slo=config
        ) as (_, _, client):
            submitted = client.submit(
                "projection", {"workload": "NoSuchWorkload"}
            )
            client.wait(submitted["id"], timeout=120)
            slo = client.slo()["slo"]
        assert slo["errors"] == 1
        assert slo["error_burn_rate"] > 1.0
        assert slo["ok"] is False

    def test_metrics_expose_slo_and_health_gauges(self, tmp_path):
        with running_daemon(tmp_path / "state") as (_, _, client):
            submitted = client.submit("projection", dict(PAYLOAD))
            client.wait(submitted["id"], timeout=120)
            text = client.metrics_text()
        samples = {
            name: value for name, _, value in parse_exposition(text)
        }
        assert samples["repro_obs_slo_window_jobs"] >= 1
        assert samples["repro_obs_slo_error_burn_rate"] == 0.0
        assert samples["repro_obs_slo_latency_burn_rate"] == 0.0
        assert samples["repro_obs_health_ok"] == 1
        # submit, start, complete: one event per journal transition.
        assert samples["repro_obs_events_emitted"] == 3


class TestShadowAuditInDaemon:
    def test_audited_daemon_publishes_agreement_metrics(
        self, tmp_path, model_path
    ):
        with running_daemon(
            tmp_path / "state",
            surrogate_model=model_path,
            audit_rate=1.0,
        ) as (app, _, client):
            for _ in range(3):
                submitted = client.submit(
                    "projection", dict(PAYLOAD, mode="surrogate")
                )
                body = client.wait(submitted["id"], timeout=300)
                assert body["result"]["record"]["path"] == "surrogate"
            app.auditor.stop()  # drain pending audits synchronously
            text = client.metrics_text()
            status = client.status()
            slo = client.slo()
        samples = {
            name: value for name, _, value in parse_exposition(text)
        }
        assert samples["repro_obs_surrogate_audits_total"] == 3
        assert "repro_obs_surrogate_audit_disagreements_total" in samples
        assert 0.0 <= samples["repro_obs_surrogate_audit_agreement"] <= 1.0
        assert status["audit"]["audits"] == 3
        assert slo["audit"]["considered"] == 3

    def test_drifted_surrogate_flips_status_health(
        self, tmp_path, model_path
    ):
        with running_daemon(
            tmp_path / "state",
            surrogate_model=model_path,
            audit_rate=1.0,
            audit_min_agreement=0.9,
        ) as (app, _, client):
            # Poison the rolling window the way a drifted surrogate
            # would: enough disagreements past the sample floor.
            auditor = app.auditor
            with auditor._lock:
                auditor._audits = 10
                auditor._disagreements = 10
                auditor._window = [False] * 10
            assert client.status()["health"] == "degraded"
            assert client.slo()["health"] == "degraded"
            text = client.metrics_text()
        samples = {
            name: value for name, _, value in parse_exposition(text)
        }
        assert samples["repro_obs_health_ok"] == 0
        assert samples["repro_obs_surrogate_audit_agreement"] == 0.0

    def test_audit_rate_zero_disables_the_auditor(
        self, tmp_path, model_path
    ):
        with running_daemon(
            tmp_path / "state",
            surrogate_model=model_path,
            audit_rate=0,
        ) as (app, _, client):
            assert app.auditor is None
            assert client.status()["health"] == "ok"
            assert "audit" not in client.status()


class TestJournalRoundTrip:
    def test_trace_fields_survive_the_journal(self, tmp_path):
        job = Job(
            job_id="j1",
            kind="projection",
            payload=dict(PAYLOAD),
            trace_id="tid-1",
            client_submitted=123.5,
            trace=True,
        )
        restored = Job.from_dict(job.to_dict())
        assert restored.trace_id == "tid-1"
        assert restored.client_submitted == 123.5
        assert restored.trace is True

    def test_untraced_job_record_stays_sparse(self):
        job = Job(job_id="j2", kind="projection", payload=dict(PAYLOAD))
        record = job.to_dict()
        assert "trace" not in record
        assert "trace_id" not in record
        assert "client_submitted" not in record
