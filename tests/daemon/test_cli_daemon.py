"""CLI surface tests: version verbs, daemon verbs, structured errors."""

import json

import pytest

from repro.cli import main
from repro.daemon.server import DaemonApp, DaemonServer
from repro.version import package_version

from tests.daemon.lifecycle import assert_events_match_journal


def run_cli(*argv):
    out_lines, err_lines = [], []
    code = main(list(argv), out=out_lines.append, err=err_lines.append)
    return code, "\n".join(out_lines), "\n".join(err_lines)


@pytest.fixture
def live_daemon(tmp_path):
    """An in-process daemon whose URL the CLI verbs can target."""
    app = DaemonApp(tmp_path / "state", workers=2)
    server = DaemonServer(app)
    server.serve_in_thread()
    yield server
    server.stop()


class TestVersion:
    def test_version_verb(self):
        code, out, _ = run_cli("version")
        assert code == 0
        assert package_version() in out
        assert "protocol" in out

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_version_is_not_the_unknown_sentinel(self):
        assert package_version() != "0.0.0+unknown"


class TestDaemonVerbs:
    def test_submit_wait_result_cancel(self, live_daemon, tmp_path):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M", "--wait",
        )
        assert code == 0
        assert "submitted projection job" in out
        assert "done" in out

        job_id = out.split("job ")[1].split()[0]
        result_file = tmp_path / "result.json"
        code, out, _ = run_cli(
            "daemon", "result", "--url", live_daemon.url, job_id,
            "-o", str(result_file),
        )
        assert code == 0
        document = json.loads(result_file.read_text())
        assert document["kind"] == "projection"
        assert document["record"]["ok"]

        code, out, _ = run_cli(
            "daemon", "cancel", "--url", live_daemon.url, job_id
        )
        assert code == 0
        assert "done" in out  # terminal: cancel is an idempotent no-op

    def test_status_table(self, live_daemon):
        run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--wait",
        )
        code, out, _ = run_cli(
            "daemon", "status", "--url", live_daemon.url
        )
        assert code == 0
        assert "repro daemon v" in out
        assert "workers 2" in out
        assert "1 done" in out
        # The job table header and one row.
        assert "kind" in out and "projection" in out

    def test_submit_batch_payload_file(self, live_daemon, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"workload": "VectorAdd", "dataset": "4M"})
            + "\n"
            + json.dumps({"workload": "VectorAdd", "dataset": "16M"})
            + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--kind", "batch", "--payload", str(requests), "--wait",
        )
        assert code == 0
        assert "ok 2, errors 0" in out
        assert "hit rate" in out
        assert "p95 per-request" in out

    def test_sweep_submission(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--kind", "sweep", "--workload", "VectorAdd",
            "--dataset", "4M", "--dataset", "16M", "--wait",
        )
        assert code == 0
        assert "ok 2, errors 0" in out

    def test_sweep_submission_with_arch_axis(self, live_daemon):
        # Two datasets x two registry generations: four tiles.
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--kind", "sweep", "--workload", "VectorAdd",
            "--dataset", "4M", "--dataset", "16M",
            "--arch", "gtx_280", "--arch", "kepler_k20", "--wait",
        )
        assert code == 0
        assert "ok 4, errors 0" in out

    def test_projection_submission_with_registry_arch(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M",
            "--arch", "pascal_p100", "--wait",
        )
        assert code == 0
        assert "done" in out


class TestStructuredErrors:
    def test_daemon_rejection_renders_field_and_hint(self, live_daemon):
        code, _, err = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--kind", "batch", "--workload", "VectorAdd",
        )
        assert code == 2
        assert err.startswith("error: batch submissions need --payload")
        assert "field: payload" in err
        assert "hint:" in err

    def test_http_rejection_carries_the_same_shape(self, live_daemon):
        # Bypass CLI payload building: POST a bad kind directly.
        from repro.daemon.client import DaemonClient, DaemonError

        client = DaemonClient(base_url=live_daemon.url)
        with pytest.raises(DaemonError) as excinfo:
            client.submit("mystery", {})
        body = excinfo.value.body
        assert set(body) >= {"error", "field", "hint"}

    def test_unreachable_daemon_is_one_clean_line(self, tmp_path):
        code, _, err = run_cli(
            "daemon", "status", "--state-dir", str(tmp_path / "empty")
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "daemon" in err

    def test_failed_job_renders_structured_error(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "NoSuchWorkload", "--wait",
        )
        assert code == 1
        assert "failed" in out
        assert "field: workload" in out
        assert "hint:" in out


class TestBatchSummaryParity:
    """``batch`` and daemon results print the same summary block."""

    def test_batch_report_has_cache_and_p95_lines(self, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"workload": "VectorAdd", "dataset": "4M"}) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            "batch", str(requests),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        assert "ok 1, errors 0" in out
        assert "cache hits 0/1" in out
        assert "p95 per-request" in out


class TestObsVerbs:
    def test_traced_submit_then_trace_verb(self, live_daemon, tmp_path):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M",
            "--trace", "--wait",
        )
        assert code == 0
        assert "submitted traced projection job" in out
        job_id = out.split("job ")[1].split()[0]

        trace_file = tmp_path / "job.trace.json"
        code, out, _ = run_cli(
            "daemon", "trace", "--url", live_daemon.url, job_id,
            "-o", str(trace_file),
        )
        assert code == 0
        assert str(trace_file) in out
        from repro.obs.context import validate_chrome_trace

        document = json.loads(trace_file.read_text())
        assert validate_chrome_trace(document) >= 3
        assert document["job_id"] == job_id

    def test_trace_verb_prints_json_to_stdout(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M",
            "--trace", "--wait",
        )
        job_id = out.split("job ")[1].split()[0]
        code, out, _ = run_cli(
            "daemon", "trace", "--url", live_daemon.url, job_id
        )
        assert code == 0
        assert json.loads(out)["job_id"] == job_id

    def test_trace_of_untraced_job_is_a_structured_error(
        self, live_daemon
    ):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M", "--wait",
        )
        job_id = out.split("job ")[1].split()[0]
        code, _, err = run_cli(
            "daemon", "trace", "--url", live_daemon.url, job_id
        )
        assert code == 2
        assert "not traced" in err
        assert "hint" in err

    def test_tail_human_and_json(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "submit", "--url", live_daemon.url,
            "--workload", "VectorAdd", "--dataset", "4M", "--wait",
        )
        assert code == 0
        job_id = out.split("job ")[1].split()[0]

        code, out, _ = run_cli(
            "daemon", "tail", "--url", live_daemon.url, "-n", "50"
        )
        assert code == 0
        assert "submit" in out
        assert "complete" in out
        assert f"job={job_id}" in out

        code, out, _ = run_cli(
            "daemon", "tail", "--url", live_daemon.url,
            "-n", "50", "--json",
        )
        assert code == 0
        events = [json.loads(line) for line in out.splitlines()]
        assert {event["job_id"] for event in events} == {job_id}
        assert all("seq" in event and "at" in event for event in events)
        assert job_id in assert_events_match_journal(
            live_daemon.app.state_dir
        )

    def test_status_json_matches_the_http_body(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "status", "--url", live_daemon.url, "--json"
        )
        assert code == 0
        body = json.loads(out)
        assert body["health"] == "ok"
        assert body["workers"] == 2
        assert "queue" in body
        assert isinstance(body["jobs"], list)

    def test_status_table_shows_health(self, live_daemon):
        code, out, _ = run_cli(
            "daemon", "status", "--url", live_daemon.url
        )
        assert code == 0
        assert "health ok" in out
