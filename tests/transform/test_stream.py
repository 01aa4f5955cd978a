"""Tests for the fused scoring pass behind ``explorer="fast"``.

The fused explorer (it grew out of the former argmin-only "stream"
path, whose test names this module keeps) promises the *identical*
projection the reference explorer gives — same ranking head, bitwise-
equal seconds, same tie-breaking, same counts, same ``no legal
mapping`` failure text — while materializing only the head.  This
module covers the three calibrated presets, arena reuse, and the
degenerate spaces (empty, single-candidate, all-illegal, synthesis
failure); the property test in ``test_fast_reference_property.py``
covers random skeletons.
"""

import pytest

from repro.gpu.arch import gtx_280, quadro_fx_5600, tesla_c1060
from repro.gpu.model import GpuPerformanceModel
from repro.skeleton import DType, KernelBuilder, ProgramBuilder
from repro.transform.explorer import explore_kernel, project_program
from repro.transform.space import TransformationSpace

N = 257


def stencil_program(name="p"):
    kb = KernelBuilder("stencil")
    kb.parallel_loop("i", N - 1, 1)
    kb.parallel_loop("j", N - 1, 1)
    kb.load("a", "i", "j")
    kb.load("a", ("i", 1, 1), "j")
    kb.load("a", ("i", 1, -1), "j")
    kb.store("out", "i", "j")
    kb.statement(flops=5.0)
    pb = ProgramBuilder(name)
    pb.array("a", (N, N), DType.float32)
    pb.array("out", (N, N), DType.float32)
    pb.kernel(kb.build())
    return pb.build()


def serial_only_program():
    """No parallel loop: every mapping is illegal on every arch."""
    kb = KernelBuilder("serial")
    kb.loop("k", 2, 1)
    kb.load("a", "k", "k")
    kb.statement(flops=1.0)
    pb = ProgramBuilder("serial_only")
    pb.array("a", (N, N), DType.float32)
    pb.kernel(kb.build())
    return pb.build()


class TestEquivalence:
    @pytest.mark.parametrize("arch_fn", [quadro_fx_5600, tesla_c1060, gtx_280])
    @pytest.mark.parametrize(
        "space_fn",
        [TransformationSpace.default, TransformationSpace.wide],
    )
    def test_stream_equals_reference(self, arch_fn, space_fn):
        program = stencil_program()
        kernel = program.kernels[0]
        model = GpuPerformanceModel(arch_fn())
        space = space_fn()
        reference = explore_kernel(
            kernel, program, model, space, explorer="reference"
        )
        result = explore_kernel(kernel, program, model, space)
        assert result == reference
        assert result.seconds == reference.seconds  # bitwise
        assert result.search_width == len(space)

    def test_explorer_routing(self):
        program = stencil_program()
        kernel = program.kernels[0]
        model = GpuPerformanceModel(quadro_fx_5600())
        fast = explore_kernel(kernel, program, model, explorer="fast")
        default = explore_kernel(kernel, program, model)
        assert default == fast
        assert fast == explore_kernel(
            kernel, program, model, explorer="reference"
        )
        with pytest.raises(ValueError, match="unknown explorer 'stream'"):
            explore_kernel(kernel, program, model, explorer="stream")

    def test_unknown_explorer_rejected(self):
        program = stencil_program()
        with pytest.raises(ValueError, match="expected 'fast'"):
            explore_kernel(
                program.kernels[0],
                program,
                GpuPerformanceModel(quadro_fx_5600()),
                explorer="warp-drive",
            )

    def test_warm_reuse_is_identical(self):
        """The thread's scratch arena is reused across searches; a
        second search (and one on another kernel in between) must not
        see the first one's buffers."""
        program = stencil_program()
        kernel = program.kernels[0]
        model = GpuPerformanceModel(quadro_fx_5600())
        cold = explore_kernel(kernel, program, model)
        other = stencil_program("q")
        explore_kernel(
            other.kernels[0], other, model, TransformationSpace.wide()
        )
        warm = explore_kernel(kernel, program, model)
        assert warm == cold

    def test_project_program_sums_kernels(self):
        program = stencil_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        result = project_program(program, model)
        assert result.program == program.name
        assert result.seconds == sum(k.seconds for k in result.kernels)
        assert [k.kernel for k in result.kernels] == [
            k.name for k in program.kernels
        ]
        assert result == project_program(
            program, model, explorer="reference"
        )


class TestDegenerateSpaces:
    def test_empty_space_raises_tried_zero(self):
        # TransformationSpace refuses to be empty, so fake the minimal
        # space surface the explorer reads.
        class EmptySpace:
            def configs(self):
                return ()

        program = stencil_program()
        model = GpuPerformanceModel(quadro_fx_5600())
        with pytest.raises(ValueError, match=r"tried 0"):
            explore_kernel(program.kernels[0], program, model, EmptySpace())

    def test_single_candidate_space(self):
        program = stencil_program()
        kernel = program.kernels[0]
        model = GpuPerformanceModel(quadro_fx_5600())
        space = TransformationSpace.naive()
        reference = explore_kernel(
            kernel, program, model, space, explorer="reference"
        )
        result = explore_kernel(kernel, program, model, space)
        assert result == reference
        assert result.candidates == (result.best,)
        assert (result.explored, result.skipped) == (1, 0)

    def test_all_illegal_matches_reference_error(self):
        program = serial_only_program()
        kernel = program.kernels[0]
        model = GpuPerformanceModel(quadro_fx_5600())
        with pytest.raises(ValueError) as reference:
            explore_kernel(kernel, program, model, explorer="reference")
        with pytest.raises(ValueError) as fused:
            explore_kernel(kernel, program, model)
        assert str(fused.value) == str(reference.value)
