"""Tests for the fused exploration path and its explorer wiring."""

import pytest

from repro.gpu.arch import quadro_fx_5600, tesla_c1060
from repro.gpu.model import GpuPerformanceModel
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.transform.explorer import TOP_K, explore_configs, explore_kernel
from repro.transform.space import TransformationSpace


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


class TestFastPathEquivalence:
    @pytest.mark.parametrize("arch_fn", [quadro_fx_5600, tesla_c1060])
    @pytest.mark.parametrize(
        "space", [TransformationSpace.default(), TransformationSpace.wide()]
    )
    def test_matches_reference(self, arch_fn, space):
        program = stencil_program()
        model = GpuPerformanceModel(arch_fn())
        kernel = program.kernels[0]
        fast = explore_kernel(
            kernel, program, model, space, explorer="fast"
        )
        ref = explore_kernel(
            kernel, program, model, space, explorer="reference"
        )
        assert fast == ref
        # The kept head is the reference table's stable-sorted prefix.
        table, skipped = explore_configs(
            kernel, program, model, space.configs()
        )
        ranked = sorted(table, key=lambda c: c.seconds)
        assert fast.candidates == tuple(ranked[:TOP_K])
        assert (fast.explored, fast.skipped) == (len(table), len(skipped))


class TestExplorerSelection:
    def test_unknown_explorer_rejected(self):
        program = stencil_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        with pytest.raises(ValueError, match="unknown explorer"):
            explore_kernel(
                program.kernels[0], program, model, explorer="turbo"
            )

    def test_no_legal_mapping_raises_same_error(self):
        program = stencil_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        space = TransformationSpace(
            block_sizes=(1024,),  # unlaunchable on the FX 5600
            shared_memory_options=(False,),
            unroll_factors=(1,),
        )
        with pytest.raises(ValueError) as fast_err:
            explore_kernel(
                program.kernels[0], program, model, space, explorer="fast"
            )
        with pytest.raises(ValueError) as ref_err:
            explore_kernel(
                program.kernels[0], program, model, space,
                explorer="reference",
            )
        assert str(fast_err.value) == str(ref_err.value)
