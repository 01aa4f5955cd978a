"""Kernel-level cache: LRU semantics and engine integration.

The kernel tier caches *exploration* results under kernel content +
architecture + space; the bus stays out of the key, so bus
what-if studies re-price transfers without re-searching the
transformation space.
"""

import pytest

from repro.core.keys import kernel_key
from repro.core.projector import GrophecyPlusPlus
from repro.gpu.arch import quadro_fx_5600, tesla_c1060
from repro.pcie.presets import pcie_gen1_bus, pcie_gen2_bus, pcie_gen3_bus
from repro.service.cache import KernelProjectionCache
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.skeleton.program import kernel_fingerprint
from repro.transform.space import TransformationSpace
from repro.workloads.registry import get_workload


def _kernel_key(engine, kernel, array_map, arch, space):
    """The engine's kernel-cache key for one kernel of a program."""
    return kernel_key(kernel_fingerprint(kernel, array_map), arch, space)


@pytest.fixture(scope="module")
def space():
    return TransformationSpace.default()


@pytest.fixture(scope="module")
def srad_inputs():
    workload = get_workload("SRAD")
    dataset = workload.datasets()[0]
    return workload.skeleton(dataset), workload.hints(dataset)


class TestKernelProjectionCacheLru:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            KernelProjectionCache(capacity=0)

    def test_miss_then_hit(self):
        cache = KernelProjectionCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", "value")
        assert cache.get("k") == "value"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_eviction_is_lru_not_fifo(self):
        cache = KernelProjectionCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_put_overwrites_without_eviction(self):
        cache = KernelProjectionCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2
        assert cache.stats()["evictions"] == 0

    def test_clear_keeps_counters(self):
        cache = KernelProjectionCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1


class TestEngineIntegration:
    def test_bus_whatif_hits_kernel_cache(self, space, srad_inputs):
        """Same program over three buses: one exploration, two full
        kernel-cache hits, identical projections to the direct pipeline."""
        program, hints = srad_inputs
        engine = ProjectionEngine(tesla_c1060(), pcie_gen1_bus(), space)
        buses = (pcie_gen1_bus(), pcie_gen2_bus(), pcie_gen3_bus())
        responses = [
            engine.project(ProjectionRequest(program, hints, bus=bus))
            for bus in buses
        ]
        kernels = len(program.kernels)
        stats = engine.kernel_cache.stats()
        assert stats["misses"] == kernels
        assert stats["hits"] == kernels * (len(buses) - 1)
        assert engine.metrics.counter("kernel_cache_hits") == stats["hits"]
        assert (
            engine.metrics.counter("kernel_cache_misses") == stats["misses"]
        )
        for bus, response in zip(buses, responses):
            exact = GrophecyPlusPlus(tesla_c1060(), bus, space).project(
                program, hints
            )
            assert response.projection == exact

    def test_candidates_explored_counts_searches_not_hits(
        self, space, srad_inputs
    ):
        program, hints = srad_inputs
        engine = ProjectionEngine(tesla_c1060(), pcie_gen1_bus(), space)
        engine.project(ProjectionRequest(program, hints))
        explored = engine.metrics.counter("candidates_explored")
        assert explored > 0
        engine.project(ProjectionRequest(program, hints, bus=pcie_gen2_bus()))
        assert engine.metrics.counter("candidates_explored") == explored

    def test_partial_hit_explores_only_missing_kernels(
        self, space, srad_inputs
    ):
        program, hints = srad_inputs
        assert len(program.kernels) >= 2
        exact = GrophecyPlusPlus(
            tesla_c1060(), pcie_gen1_bus(), space
        ).project(program, hints)

        shared = KernelProjectionCache()
        engine = ProjectionEngine(
            tesla_c1060(), pcie_gen1_bus(), space, kernel_cache=shared
        )
        model = engine._model_for(tesla_c1060())
        key = _kernel_key(
            engine, program.kernels[0], program.array_map, model.arch, space
        )
        shared.put(key, exact.kernels.kernels[0])

        response = engine.project(ProjectionRequest(program, hints))
        assert response.projection == exact
        assert engine.metrics.counter("kernel_cache_hits") == 1
        assert (
            engine.metrics.counter("kernel_cache_misses")
            == len(program.kernels) - 1
        )

    def test_arch_gets_its_own_entries(self, space, srad_inputs):
        program, _ = srad_inputs
        engine = ProjectionEngine(tesla_c1060(), pcie_gen1_bus(), space)
        kernel = program.kernels[0]
        assert _kernel_key(
            engine, kernel, program.array_map, tesla_c1060(), space
        ) != _kernel_key(
            engine, kernel, program.array_map, quadro_fx_5600(), space
        )

    def test_capacity_zero_disables_tier(self, space, srad_inputs):
        program, hints = srad_inputs
        engine = ProjectionEngine(
            tesla_c1060(), pcie_gen1_bus(), space, kernel_cache_capacity=0
        )
        assert engine.kernel_cache is None
        response = engine.project(ProjectionRequest(program, hints))
        exact = GrophecyPlusPlus(
            tesla_c1060(), pcie_gen1_bus(), space
        ).project(program, hints)
        assert response.projection == exact
        assert engine.metrics.counter("kernel_cache_hits") == 0
        assert engine.metrics.counter("kernel_cache_misses") == 0

    def test_negative_capacity_rejected(self, space):
        with pytest.raises(ValueError, match="kernel_cache_capacity"):
            ProjectionEngine(
                tesla_c1060(),
                pcie_gen1_bus(),
                space,
                kernel_cache_capacity=-1,
            )

    def test_cache_shared_across_engines(self, space, srad_inputs):
        """A shared kernel cache carries explorations between engines
        with different buses (e.g. a what-if engine per generation)."""
        program, hints = srad_inputs
        shared = KernelProjectionCache()
        first = ProjectionEngine(
            tesla_c1060(), pcie_gen1_bus(), space, kernel_cache=shared
        )
        second = ProjectionEngine(
            tesla_c1060(), pcie_gen3_bus(), space, kernel_cache=shared
        )
        first.project(ProjectionRequest(program, hints))
        response = second.project(ProjectionRequest(program, hints))
        kernels = len(program.kernels)
        assert second.metrics.counter("kernel_cache_hits") == kernels
        exact = GrophecyPlusPlus(
            tesla_c1060(), pcie_gen3_bus(), space
        ).project(program, hints)
        assert response.projection == exact

    def test_programs_sharing_a_kernel_share_entries(self, space):
        """Program identity is out of the key: renaming the program (and
        nothing else) still hits."""
        workload = get_workload("SRAD")
        dataset = workload.datasets()[0]
        program = workload.skeleton(dataset)
        engine = ProjectionEngine(tesla_c1060(), pcie_gen1_bus(), space)
        model = engine._model_for(tesla_c1060())
        keys = [
            _kernel_key(engine, k, program.array_map, model.arch, space)
            for k in program.kernels
        ]
        import dataclasses

        renamed = dataclasses.replace(program, name="renamed-srad")
        renamed_keys = [
            _kernel_key(engine, k, renamed.array_map, model.arch, space)
            for k in renamed.kernels
        ]
        assert keys == renamed_keys
