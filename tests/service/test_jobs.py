"""Tests for the JSONL batch runner and request parsing."""

import json
from pathlib import Path

import pytest

from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine
from repro.service.jobs import BadRequestError, parse_request, run_batch

INLINE_SKELETON = """\
program tiny
array a[1024] f32
array b[1024] f32

kernel copy
  parfor i in 0..1024
  stmt flops=1
    load a[i]
    store b[i]
"""


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            if isinstance(record, str):
                fh.write(record + "\n")
            else:
                fh.write(json.dumps(record) + "\n")
    return path


class TestParseRequest:
    BASE = Path(".")

    def test_workload_with_dataset(self):
        request = parse_request(
            {"workload": "HotSpot", "dataset": "64 x 64"}, 0, self.BASE
        )
        assert "hotspot" in request.program.name
        assert request.request_id == "request-1"

    def test_inline_skeleton(self):
        request = parse_request(
            {"id": "x", "skeleton": INLINE_SKELETON}, 3, self.BASE
        )
        assert request.program.name == "tiny"
        assert request.request_id == "x"

    def test_skeleton_file_relative_to_requests_dir(self, tmp_path):
        (tmp_path / "t.skel").write_text(INLINE_SKELETON)
        request = parse_request(
            {"skeleton_file": "t.skel"}, 0, tmp_path
        )
        assert request.program.name == "tiny"

    def test_optional_fields(self):
        request = parse_request(
            {
                "workload": "VectorAdd",
                "iterations": 10,
                "cpu_ms": 25,
                "arch": "gtx_280",
                "pcie_gen": 2,
                "batched_transfers": True,
            },
            0,
            self.BASE,
        )
        assert request.iterations == 10
        assert request.cpu_seconds == pytest.approx(0.025)
        assert request.arch is not None and "280" in request.arch.name
        assert request.bus is not None
        assert request.batched_transfers

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ([1, 2], "JSON object"),
            ({}, "exactly one"),
            ({"workload": "X", "skeleton": "y"}, "exactly one"),
            ({"workload": "NoSuchWorkload"}, "NoSuchWorkload"),
            ({"workload": "VectorAdd", "arch": "volta"}, "unknown arch"),
            ({"workload": "VectorAdd", "pcie_gen": 9}, "generation"),
            ({"workload": "VectorAdd", "iterations": 0}, "iterations"),
            (
                {"workload": "VectorAdd", "sparse_extents": {"a": "lots"}},
                "bad hints",
            ),
        ],
    )
    def test_bad_records_raise_one_line_errors(self, record, fragment):
        with pytest.raises(BadRequestError) as exc_info:
            parse_request(record, 0, self.BASE)
        message = str(exc_info.value)
        assert fragment in message
        assert "\n" not in message


class TestRunBatch:
    def test_error_isolation(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl",
            [
                {"id": "good", "skeleton": INLINE_SKELETON},
                {"id": "bad-workload", "workload": "NoSuchWorkload"},
                "{this is not json",
                {"id": "bad-skel", "skeleton": "program broken\nwat\n"},
                {"id": "also-good", "workload": "VectorAdd"},
            ],
        )
        result = run_batch(requests, engine=ProjectionEngine())
        assert result.ok_count == 2
        assert result.error_count == 3
        ids = [r.request_id for r in result.records]
        assert ids == [
            "good", "bad-workload", "request-3", "bad-skel", "also-good"
        ]
        errors = {r.request_id: r.error for r in result.records if not r.ok}
        assert "NoSuchWorkload" in errors["bad-workload"]
        assert "bad JSON" in errors["request-3"]

    def test_output_file_in_input_order(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl",
            [
                {"id": f"req-{i}", "skeleton": INLINE_SKELETON}
                for i in range(3)
            ],
        )
        out = tmp_path / "out.jsonl"
        run_batch(requests, output_path=out, engine=ProjectionEngine())
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["id"] for row in rows] == ["req-0", "req-1", "req-2"]
        assert all(row["ok"] for row in rows)
        assert all("projection" in row for row in rows)

    def test_default_output_path(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl", [{"workload": "VectorAdd"}]
        )
        result = run_batch(requests, engine=ProjectionEngine())
        assert result.output_path == str(tmp_path / "r.jsonl.results.jsonl")
        assert Path(result.output_path).is_file()

    def test_second_run_hits_cache(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl",
            [
                {"id": "hs", "workload": "HotSpot", "dataset": "64 x 64"},
                {"id": "va", "workload": "VectorAdd"},
            ],
        )
        engine = ProjectionEngine(
            cache=ProjectionCache(disk_dir=tmp_path / "cache")
        )
        cold = run_batch(requests, engine=engine, max_workers=2)
        warm = run_batch(requests, engine=engine, max_workers=2)
        assert cold.hit_count == 0
        assert warm.hit_count == 2
        assert warm.metrics["counters"]["cache_hits"] == 2

    def test_metrics_snapshot_attached(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl", [{"workload": "VectorAdd"}]
        )
        result = run_batch(requests, engine=ProjectionEngine())
        assert result.metrics["counters"]["requests"] == 1

    def test_report_mentions_errors(self, tmp_path):
        requests = write_jsonl(
            tmp_path / "r.jsonl",
            [{"id": "oops", "workload": "NoSuchWorkload"}],
        )
        result = run_batch(requests, engine=ProjectionEngine())
        report = result.report()
        assert "ok 0, errors 1" in report
        assert "oops" in report

    def test_timeout_produces_error_record(self, tmp_path):
        import time

        class SlowEngine(ProjectionEngine):
            # Deterministically slower than the timeout: the real
            # engine can finish before the main thread even asks for
            # the result, which made a bare 1e-9s timeout flaky.
            def project(self, request):
                time.sleep(0.05)
                return super().project(request)

        requests = write_jsonl(
            tmp_path / "r.jsonl",
            [{"id": "slow", "workload": "CFD"}],
        )
        result = run_batch(
            requests, engine=SlowEngine(), timeout=1e-3
        )
        assert result.error_count == 1
        assert "timed out" in result.records[0].error
