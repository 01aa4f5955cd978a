"""Property test: the fast explorer is indistinguishable from the oracle.

Hypothesis builds random-but-valid kernel skeletons (loop nests, access
patterns, branch weights, amortized statements, indirect accesses) and
checks that the fused explorer returns the very ``KernelProjection`` the
scalar reference does — the same top-ranked candidates (config,
characteristics and breakdown, so every float matches bit for bit), the
same explored/skipped counts, and the same ``no legal mapping`` text —
on every registry architecture and in both the default and wide spaces.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.gpu.model import GpuPerformanceModel  # noqa: E402
from repro.gpu.registry import arch_ids, get_arch  # noqa: E402
from repro.gpu.vectorized import ScoreArena, fused_argmin  # noqa: E402
from repro.skeleton import (  # noqa: E402
    ArrayKind,
    DType,
    KernelBuilder,
    ProgramBuilder,
)
from repro.transform.analysis import analyze_kernel  # noqa: E402
from repro.transform.explorer import (  # noqa: E402
    TOP_K,
    explore_configs,
    explore_kernel,
)
from repro.transform.space import TransformationSpace  # noqa: E402

N = 257  # odd grid edge: exercises ceil-division paths

ARCHES = list(arch_ids())
SHIFTS = [None, ("", 1, -1), ("", 1, 1)]  # None = plain var


@st.composite
def subscripts(draw, vars_2d):
    """A rank-2 subscript over the available loop variables."""
    row = draw(st.sampled_from(vars_2d))
    col = draw(st.sampled_from(vars_2d))
    out = []
    for var in (row, col):
        shift = draw(st.sampled_from(SHIFTS))
        out.append(var if shift is None else (var, shift[1], shift[2]))
    return tuple(out)


@st.composite
def kernels(draw):
    kb = KernelBuilder("rand")
    shape = draw(
        st.sampled_from(
            ["ij", "i", "ikj", "kij", "ijk", "k"]  # "k" = no parallel loop
        )
    )
    serial_extent = draw(st.sampled_from([2, 5, 16]))
    loop_vars = []
    for var in shape:
        if var == "k":
            kb.loop("k", serial_extent, 1)
        else:
            kb.parallel_loop(var, N - 1, 1)
        loop_vars.append(var)
    # Serial-loop subscripts stay in range: extents are < N.
    n_statements = draw(st.integers(1, 3))
    for _ in range(n_statements):
        n_loads = draw(st.integers(1, 3))
        for _ in range(n_loads):
            array = draw(st.sampled_from(["a", "b", "c"]))
            if draw(st.booleans()) and draw(st.booleans()):
                kb.gather(array, *draw(subscripts(loop_vars)), dims=(0,))
            else:
                kb.load(array, *draw(subscripts(loop_vars)))
        if draw(st.booleans()):
            kb.store("out", *draw(subscripts(loop_vars)))
        if draw(st.booleans()):
            kb.load("sp", draw(st.sampled_from(loop_vars)))
        amortize = None
        if "k" in loop_vars and draw(st.booleans()):
            amortize = ("k",)
        kb.statement(
            flops=draw(st.sampled_from([0.0, 1.0, 5.0, 12.0])),
            branch_prob=draw(st.sampled_from([1.0, 0.5, 0.25])),
            amortize=amortize,
        )
    return kb.build()


@st.composite
def programs(draw):
    pb = ProgramBuilder("rand")
    dtype = draw(st.sampled_from([DType.float32, DType.float64]))
    for name in ("a", "b", "c", "out"):
        pb.array(name, (N, N), dtype)
    pb.array("sp", (N,), DType.float32, ArrayKind.SPARSE)
    pb.kernel(draw(kernels()))
    return pb.build()


SPACES = (TransformationSpace.default(), TransformationSpace.wide())


def _explore(program, model, space, explorer):
    """The projection, or the error text when no mapping is legal."""
    try:
        return explore_kernel(
            program.kernels[0], program, model, space, explorer=explorer
        )
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(program=programs())
def test_fast_path_equals_reference(program):
    """Every drawn kernel runs on every registry arch, in both spaces."""
    for arch_id in ARCHES:
        model = GpuPerformanceModel(get_arch(arch_id))
        for space in SPACES:
            fast = _explore(program, model, space, "fast")
            ref = _explore(program, model, space, "reference")
            # Whole KernelProjection (dataclass eq), or the error text.
            assert fast == ref, (arch_id, space)
            if isinstance(ref, str):
                assert "no legal mapping" in ref
                continue
            assert ref.search_width == len(space)
            assert len(ref.candidates) == min(TOP_K, ref.explored)
            assert ref.best == ref.candidates[0]


@settings(max_examples=40, deadline=None)
@given(
    program=programs(),
    arch_id=st.sampled_from(ARCHES),
    space=st.sampled_from(SPACES),
)
def test_stream_path_equals_reference(program, arch_id, space):
    """The argmin-only scorer (``fused_argmin`` over ``config_columns``,
    what the surrogate's training labels come from) picks the reference
    winner: same first-minimum row, bitwise-equal seconds, same legal
    count."""
    model = GpuPerformanceModel(get_arch(arch_id))
    kernel = program.kernels[0]
    configs = space.configs()
    ref_cands, ref_skipped = explore_configs(kernel, program, model, configs)
    try:
        analysis = analyze_kernel(
            kernel, program.array_map, model.arch.strict_coalescing
        )
    except ValueError:
        assert not ref_cands
        return
    columns, index_map, _errors = analysis.config_columns(configs)
    row, seconds, legal = fused_argmin(model, columns, ScoreArena())
    assert legal == len(ref_cands)
    assert len(configs) - legal == len(ref_skipped)
    if not ref_cands:
        assert row == -1
        return
    ref_best = min(ref_cands, key=lambda c: c.seconds)
    assert configs[int(index_map[row])] == ref_best.config
    assert seconds == ref_best.seconds
