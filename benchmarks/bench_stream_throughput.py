"""Fused scorer throughput on a large grid.

The explorer benchmark measures the end-to-end search on the 144-point
``wide()`` grid, where per-call overhead dominates.  This bench isolates
the scoring core, :func:`~repro.gpu.vectorized.fused_argmin`, on a dense
synthetic space of 2048 rows and records its rate in the ``stream_core``
section of ``BENCH_explorer.json``.
"""

import time

import pytest

from repro.gpu.arch import quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.vectorized import ScoreArena, fused_argmin
from repro.transform.analysis import analyze_kernel
from repro.transform.space import TransformationSpace
from repro.workloads.registry import get_workload

#: Dense synthetic grid: 16 blocks x 2 smem x 8 unrolls x 8 coarsenings
#: = 2048 candidate mappings per kernel.
DENSE_SPACE = TransformationSpace(
    block_sizes=tuple(range(32, 544, 32)),
    shared_memory_options=(False, True),
    unroll_factors=(1, 2, 3, 4, 6, 8, 12, 16),
    coarsening_factors=(1, 2, 3, 4, 6, 8, 12, 16),
)


@pytest.fixture(scope="module")
def dense_columns():
    """Column grid of the dense space over a real stencil kernel."""
    workload = get_workload("HotSpot")
    dataset = max(workload.datasets(), key=lambda d: d.size)
    program = workload.skeleton(dataset)
    model = GpuPerformanceModel(quadro_fx_5600())
    analysis = analyze_kernel(
        program.kernels[0], program.array_map, model.arch.strict_coalescing
    )
    columns, _index_map, _errors = analysis.config_columns(
        list(DENSE_SPACE.configs())
    )
    return model, columns


def _best_of(fn, rounds=5):
    fn()  # warm up
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_serial_fused(benchmark, dense_columns):
    model, columns = dense_columns
    arena = ScoreArena()
    benchmark.pedantic(
        lambda: fused_argmin(model, columns, arena),
        rounds=5,
        warmup_rounds=1,
    )


def test_record_core_rates(dense_columns, bench_json):
    """The serial fused core's rate on the dense grid, to JSON."""
    model, columns = dense_columns
    rows = int(columns["block_size"].shape[0])
    arena = ScoreArena()
    serial = _best_of(lambda: fused_argmin(model, columns, arena))
    bench_json(
        "stream_core",
        {"rows": rows, "serial_fused_configs_per_s": rows / serial},
    )
    print(f"\nserial fused: {rows / serial:,.0f} configs/s")
    assert rows / serial >= 450_000
