"""Tests for the projection engine: caching, batching, metrics."""

import pytest

from repro.core.projector import GrophecyPlusPlus
from repro.gpu.arch import quadro_fx_5600
from repro.pcie.presets import pcie_gen1_bus
from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.transform.space import TransformationSpace


def vector_program(n=4096, name="vadd"):
    pb = ProgramBuilder(name)
    pb.array("a", (n,)).array("b", (n,)).array("c", (n,))
    kb = KernelBuilder("add").parallel_loop("i", n)
    kb.load("a", "i").load("b", "i").store("c", "i").statement(flops=1)
    return pb.kernel(kb).build()


def stencil_heavy_program(n=512):
    # A reuse-heavy stencil: shared-memory staging wins, so its best
    # mapping differs from a plain vector kernel's.
    pb = ProgramBuilder("stencil")
    pb.array("src", (n, n)).array("dst", (n, n))
    kb = KernelBuilder("blur")
    kb.parallel_loop("i", n - 1, 1).parallel_loop("j", n - 1, 1)
    kb.load("src", "i", "j").load("src", ("i", 1, -1), "j")
    kb.load("src", ("i", 1, 1), "j").store("dst", "i", "j")
    kb.statement(flops=4)
    return pb.kernel(kb).build()


class TestSingleRequests:
    def test_matches_direct_projector(self):
        program = vector_program()
        engine = ProjectionEngine()
        response = engine.project(ProjectionRequest(program))
        direct = GrophecyPlusPlus(quadro_fx_5600(), pcie_gen1_bus()).project(
            program
        )
        assert response.summary.kernel_seconds == pytest.approx(
            direct.kernel_seconds
        )
        assert response.summary.transfer_seconds == pytest.approx(
            direct.transfer_seconds
        )
        assert not response.cached
        assert response.projection is not None

    def test_iterations_scale_total_but_not_key(self):
        program = vector_program()
        engine = ProjectionEngine(cache=ProjectionCache())
        one = engine.project(ProjectionRequest(program, iterations=1))
        many = engine.project(ProjectionRequest(program, iterations=100))
        assert many.cached  # same key: iterations are response-side only
        assert many.total_seconds > one.total_seconds

    def test_speedup_requires_cpu_time(self):
        program = vector_program()
        engine = ProjectionEngine()
        without = engine.project(ProjectionRequest(program))
        with_cpu = engine.project(
            ProjectionRequest(program, cpu_seconds=1.0)
        )
        assert without.speedup is None
        assert with_cpu.speedup == pytest.approx(
            1.0 / with_cpu.total_seconds
        )

    def test_to_dict_is_jsonl_ready(self):
        import json

        program = vector_program()
        engine = ProjectionEngine()
        record = engine.project(
            ProjectionRequest(program, request_id="r1", cpu_seconds=0.5)
        ).to_dict()
        assert record["id"] == "r1"
        assert record["ok"] is True
        assert "speedup" in record
        json.dumps(record)  # must not raise

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            ProjectionRequest(vector_program(), iterations=0)


class TestCaching:
    def test_hit_returns_identical_summary(self):
        engine = ProjectionEngine(cache=ProjectionCache())
        request = ProjectionRequest(vector_program())
        cold = engine.project(request)
        warm = engine.project(request)
        assert not cold.cached and warm.cached
        assert warm.summary == cold.summary
        assert warm.fingerprint == cold.fingerprint
        assert warm.projection is None  # hits carry only the summary

    def test_metrics_track_hits_and_misses(self):
        engine = ProjectionEngine(cache=ProjectionCache())
        request = ProjectionRequest(vector_program())
        engine.project(request)
        engine.project(request)
        engine.project(ProjectionRequest(vector_program(name="other")))
        assert engine.metrics.counter("requests") == 3
        assert engine.metrics.counter("cache_hits") == 1
        assert engine.metrics.counter("cache_misses") == 2
        assert engine.metrics.counter("candidates_explored") > 0

    def test_no_cache_means_no_hits(self):
        engine = ProjectionEngine(cache=None)
        request = ProjectionRequest(vector_program())
        assert not engine.project(request).cached
        assert not engine.project(request).cached
        assert engine.metrics.counter("cache_hits") == 0

    def test_disk_cache_spans_engines(self, tmp_path):
        request = ProjectionRequest(vector_program())
        first = ProjectionEngine(
            cache=ProjectionCache(disk_dir=tmp_path / "cache")
        )
        cold = first.project(request)
        second = ProjectionEngine(
            cache=ProjectionCache(disk_dir=tmp_path / "cache")
        )
        warm = second.project(request)
        assert warm.cached
        assert warm.summary == cold.summary

    def test_stage_timers_populated_on_miss(self):
        engine = ProjectionEngine(cache=ProjectionCache())
        engine.project(ProjectionRequest(vector_program()))
        snap = engine.metrics.snapshot()
        for stage in ("explore", "analyze", "predict", "cache_lookup"):
            assert stage in snap["timers"], stage


class TestBatching:
    def test_responses_in_request_order(self):
        engine = ProjectionEngine(max_workers=4)
        requests = [
            ProjectionRequest(
                vector_program(name=f"p{i}"), request_id=f"r{i}"
            )
            for i in range(6)
        ]
        responses = engine.project_batch(requests)
        assert [r.request_id for r in responses] == [
            f"r{i}" for i in range(6)
        ]

    def test_parallel_batch_matches_serial(self):
        requests = [
            ProjectionRequest(vector_program(n=1024 * (i + 1)))
            for i in range(4)
        ]
        serial = ProjectionEngine(max_workers=1).project_batch(requests)
        parallel = ProjectionEngine(max_workers=4).project_batch(requests)
        assert [r.summary for r in serial] == [r.summary for r in parallel]

    def test_second_batch_is_all_hits(self):
        engine = ProjectionEngine(cache=ProjectionCache(), max_workers=4)
        requests = [
            ProjectionRequest(vector_program(name=f"p{i}"))
            for i in range(5)
        ]
        engine.project_batch(requests)
        again = engine.project_batch(requests)
        assert all(r.cached for r in again)
        assert engine.metrics.counter("cache_hits") == 5


class TestStreamExplorer:
    """The default engine runs the fused scorer (the former argmin-only
    "stream" path, now the only vectorized one); its summaries must be
    the reference explorer's, counts included."""

    def test_stream_engine_matches_fast_totals(self):
        program = vector_program()
        fused = ProjectionEngine().project(ProjectionRequest(program))
        reference = ProjectionEngine(explorer="reference").project(
            ProjectionRequest(program)
        )
        assert fused.summary == reference.summary
        assert fused.total_seconds == reference.total_seconds
        assert [k.search_width for k in fused.summary.kernels] == [
            len(TransformationSpace.default())
        ] * len(program.kernels)

    def test_stream_engine_caches_and_rehits(self):
        engine = ProjectionEngine(cache=ProjectionCache())
        first = engine.project(ProjectionRequest(vector_program()))
        again = engine.project(ProjectionRequest(vector_program()))
        assert not first.cached
        assert again.cached
        assert again.summary == first.summary

    def test_unknown_explorer_rejected(self):
        with pytest.raises(ValueError, match="expected 'fast'"):
            ProjectionEngine(explorer="bogus")
        with pytest.raises(ValueError, match="unknown explorer 'stream'"):
            ProjectionEngine(explorer="stream")

    def test_close_is_idempotent(self):
        engine = ProjectionEngine()
        engine.project(ProjectionRequest(vector_program()))
        engine.close()
        engine.close()
        # Pools recreate lazily: the engine still serves after close().
        response = engine.project(ProjectionRequest(vector_program()))
        assert response.summary.kernel_seconds > 0

    def test_stream_engine_is_thread_safe(self):
        # The batch runner shares one engine across its worker threads;
        # a shared (non-thread-local) arena corrupts concurrent fused
        # passes, surfacing as a wrong tie-break (regression: VectorAdd
        # flipped b64 -> b64+smem under a racing SRAD projection).
        from concurrent.futures import ThreadPoolExecutor

        programs = [
            vector_program(1 << 16, "vadd"),
            stencil_heavy_program(),
        ]
        serial = ProjectionEngine()
        truth = {}
        for program in programs:
            response = serial.project(ProjectionRequest(program))
            truth[program.name] = [
                (kp.kernel, kp.best.config, kp.best.breakdown.seconds)
                for kp in response.projection.kernels.kernels
            ]
        for _trial in range(10):
            engine = ProjectionEngine(kernel_cache_capacity=0)
            with ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(
                        engine.project, ProjectionRequest(program)
                    )
                    for program in programs
                    for _ in range(2)
                ]
                for future in futures:
                    response = future.result()
                    projection = response.projection.kernels
                    got = [
                        (kp.kernel, kp.best.config, kp.best.breakdown.seconds)
                        for kp in projection.kernels
                    ]
                    assert got == truth[projection.program]
