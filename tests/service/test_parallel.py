"""Request-level fan-out must be bit-identical to serial serving."""

import pytest

from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.service.parallel import (
    map_ordered,
    shared_pool,
    shutdown_pool,
    submit_shared,
)
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.transform.space import TransformationSpace


def stencil_program(n=256):
    pb = ProgramBuilder("p")
    pb.array("src", (n, n)).array("dst", (n, n))
    kb = KernelBuilder("stencil")
    kb.parallel_loop("i", n - 1, 1).parallel_loop("j", n - 1, 1)
    kb.load("src", "i", "j").load("src", ("i", 1, -1), "j")
    kb.load("src", ("i", 1, 1), "j").store("dst", "i", "j")
    kb.statement(flops=4)
    return pb.kernel(kb).build()


def two_kernel_program(n=256):
    pb = ProgramBuilder("p2")
    pb.array("a", (n,)).array("b", (n,))
    k1 = KernelBuilder("first").parallel_loop("i", n)
    k1.load("a", "i").store("b", "i").statement(flops=1)
    k2 = KernelBuilder("second").parallel_loop("i", n)
    k2.load("b", "i").store("a", "i").statement(flops=2)
    return pb.kernel(k1).kernel(k2).build()


class TestMapOrdered:
    def test_preserves_input_order(self):
        items = list(range(20))
        assert map_ordered(lambda x: x * x, items, 4) == [
            x * x for x in items
        ]

    def test_serial_fallback_matches(self):
        items = ["a", "bb", "ccc"]
        assert map_ordered(len, items, None) == map_ordered(len, items, 8)

    def test_propagates_exceptions(self):
        def boom(x):
            raise RuntimeError(f"bad {x}")

        with pytest.raises(RuntimeError):
            map_ordered(boom, [1, 2], 2)


def _requests(program, count=5, space=None):
    return [
        ProjectionRequest(program, space=space, iterations=i + 1)
        for i in range(count)
    ]


def _served(workers, requests):
    """Fresh, cache-less engine: every request really explores."""
    engine = ProjectionEngine(max_workers=workers, kernel_cache_capacity=0)
    return [r.summary for r in engine.project_batch(requests)]


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_single_kernel_identical(self, workers):
        requests = _requests(stencil_program())
        serial = [
            ProjectionEngine(kernel_cache_capacity=0).project(r).summary
            for r in requests
        ]
        assert _served(workers, requests) == serial

    @pytest.mark.parametrize("workers", [1, 3])
    def test_multi_kernel_identical(self, workers):
        program = two_kernel_program()
        requests = _requests(program) + _requests(stencil_program())
        assert _served(workers, requests) == _served(1, requests)

    def test_no_legal_mapping_still_raises(self):
        # Only an oversized block on offer: every candidate is illegal.
        space = TransformationSpace(
            block_sizes=(1024,),
            shared_memory_options=(False,),
            unroll_factors=(1,),
        )
        with pytest.raises(ValueError, match="no legal mapping"):
            _served(4, _requests(stencil_program(), space=space))


class TestSharedPool:
    def test_pool_is_reused_across_calls(self):
        shutdown_pool()
        first = shared_pool(2)
        second = shared_pool(2)
        assert first is second
        assert shared_pool(1) is first  # smaller asks reuse the pool

    def test_pool_grows_when_asked_for_more(self):
        shutdown_pool()
        small = shared_pool(1)
        grown = shared_pool(3)
        assert grown is not small
        assert shared_pool(2) is grown

    def test_shutdown_then_lazy_recreation(self):
        pool = shared_pool(2)
        shutdown_pool()
        fresh = shared_pool(2)
        assert fresh is not pool
        assert map_ordered(lambda x: x + 1, [1, 2, 3], 2) == [2, 3, 4]

    def test_submit_shared_runs_after_shutdown(self):
        # A submission raced against shutdown still produces a result
        # (inline fallback) instead of raising.
        shutdown_pool()
        future = submit_shared(lambda: 41 + 1)
        assert future.result() == 42
        shutdown_pool()
        assert submit_shared(len, "abc").result() == 3

    def test_map_ordered_uses_shared_pool(self):
        shutdown_pool()
        map_ordered(lambda x: x, list(range(8)), 4)
        # The fan-out above created the module pool; the next call with
        # equal-or-smaller width must reuse it rather than rebuild.
        pool = shared_pool(4)
        assert shared_pool(4) is pool
