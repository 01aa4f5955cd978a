"""Tests for the transformation space and explorer."""

import pytest

from repro.gpu.arch import quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.transform.explorer import explore_kernel, project_program
from repro.transform.space import MappingConfig, TransformationSpace


def stencil_program(n=512):
    pb = ProgramBuilder("p")
    pb.array("src", (n, n)).array("dst", (n, n))
    kb = KernelBuilder("stencil")
    kb.parallel_loop("i", n - 1, 1).parallel_loop("j", n - 1, 1)
    kb.load("src", "i", "j")
    kb.load("src", ("i", 1, -1), "j")
    kb.load("src", ("i", 1, 1), "j")
    kb.load("src", "i", ("j", 1, -1))
    kb.load("src", "i", ("j", 1, 1))
    kb.store("dst", "i", "j")
    kb.statement(flops=5)
    return pb.kernel(kb).build()


class TestMappingConfig:
    def test_label(self):
        assert MappingConfig(128).label() == "b128"
        assert (
            MappingConfig(64, use_shared_memory=True, unroll=4).label()
            == "b64+smem+u4"
        )

    def test_warp_multiple_required(self):
        with pytest.raises(ValueError):
            MappingConfig(100)

    def test_positive_unroll(self):
        with pytest.raises(ValueError):
            MappingConfig(64, unroll=0)


class TestTransformationSpace:
    def test_default_size(self):
        space = TransformationSpace.default()
        assert len(space) == 8 * 2 * 3
        assert len(list(space)) == len(space)

    def test_naive_single_config(self):
        naive = TransformationSpace.naive()
        assert len(naive) == 1
        (config,) = list(naive)
        assert config == MappingConfig(256, False, 1)

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            TransformationSpace(block_sizes=())


class TestExploreKernel:
    def setup_method(self):
        self.model = GpuPerformanceModel(quadro_fx_5600())
        self.program = stencil_program()

    def test_best_is_minimum(self):
        proj = explore_kernel(
            self.program.kernels[0], self.program, self.model
        )
        assert proj.best.seconds == min(c.seconds for c in proj.candidates)
        assert proj.seconds == proj.best.seconds

    def test_space_fully_enumerated(self):
        space = TransformationSpace.default()
        proj = explore_kernel(
            self.program.kernels[0], self.program, self.model, space
        )
        assert proj.search_width == len(space)

    def test_search_beats_naive(self):
        kernel = self.program.kernels[0]
        full = explore_kernel(kernel, self.program, self.model)
        naive = explore_kernel(
            kernel, self.program, self.model, TransformationSpace.naive()
        )
        assert full.seconds <= naive.seconds

    def test_illegal_configs_skipped(self):
        # A space with an unlaunchable block size still succeeds.
        space = TransformationSpace(
            block_sizes=(256, 1024),  # 1024 > 768 threads/SM on FX 5600
            shared_memory_options=(False,),
            unroll_factors=(1,),
        )
        proj = explore_kernel(
            self.program.kernels[0], self.program, self.model, space
        )
        assert (proj.explored, proj.skipped) == (1, 1)
        assert proj.best.config.block_size == 256

    def test_all_illegal_raises(self):
        space = TransformationSpace(
            block_sizes=(1024,),
            shared_memory_options=(False,),
            unroll_factors=(1,),
        )
        with pytest.raises(ValueError, match="no legal mapping"):
            explore_kernel(
                self.program.kernels[0], self.program, self.model, space
            )


class TestProjectProgram:
    def test_sums_kernels(self):
        pb = ProgramBuilder("two")
        pb.array("a", (4096,)).array("b", (4096,)).array("c", (4096,))
        k1 = KernelBuilder("k1").parallel_loop("i", 4096)
        k1.load("a", "i").store("b", "i").statement(flops=1)
        k2 = KernelBuilder("k2").parallel_loop("i", 4096)
        k2.load("b", "i").store("c", "i").statement(flops=1)
        program = pb.kernel(k1).kernel(k2).build()
        model = GpuPerformanceModel(quadro_fx_5600())
        proj = project_program(program, model)
        assert len(proj.kernels) == 2
        assert proj.seconds == pytest.approx(
            sum(k.seconds for k in proj.kernels)
        )
        assert proj.kernel("k1").kernel == "k1"
        with pytest.raises(KeyError):
            proj.kernel("zzz")


class TestSynthesisErrorsAreSkips:
    """Regression: a ValueError raised inside synthesize_characteristics
    (not just inside model.breakdown) must mark the config as skipped
    instead of aborting the exploration."""

    def serial_only_program(self):
        pb = ProgramBuilder("serial")
        pb.array("a", (64, 1)).array("b", (64, 1))
        kb = KernelBuilder("no_parallel")
        kb.loop("k", 64)
        kb.load("a", "k", 0).store("b", "k", 0).statement(flops=1)
        return pb.kernel(kb).build()

    def test_explore_configs_records_synthesis_rejections(self):
        from repro.transform.explorer import explore_configs

        program = self.serial_only_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        space = TransformationSpace.default()
        candidates, skipped = explore_configs(
            program.kernels[0], program, model, space.configs()
        )
        assert candidates == []
        assert len(skipped) == len(space)
        for _, reason in skipped:
            assert "no parallel loop" in reason

    def test_explore_kernel_raises_no_legal_mapping(self):
        program = self.serial_only_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        for explorer in ("fast", "reference"):
            with pytest.raises(ValueError, match="no legal mapping"):
                explore_kernel(
                    program.kernels[0], program, model, explorer=explorer
                )
