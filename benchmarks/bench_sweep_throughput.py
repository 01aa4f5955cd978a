"""Sweep-engine throughput: parametric sweep vs point-at-a-time.

The paper's studies are sweeps — speedup vs data size, speedup vs
iteration count, what-if bus generations — so points-projected-per-second
is the sweep engine's hot-path metric.  This benchmark projects a
CFD-style 50-point data-size sweep once through
:class:`~repro.sweep.engine.SweepEngine` and once through the canonical
point-at-a-time :class:`~repro.core.projector.GrophecyPlusPlus` API, on
identical pre-built skeletons, and asserts the acceptance bar from
``docs/SWEEP.md``: the sweep engine is at least 5x faster, with results
verified equal first (dataclass equality over the full projection,
candidate tables included).

Both paths allocate the same large result tables; CPython's
allocation-count GC triggers mid-measurement scans of whichever run
happens to cross the threshold, so the ratio assertion pauses collection
(standard microbenchmark hygiene — pyperf does the same) and re-enables
it afterwards.
"""

import gc
import time

from repro.core.projector import GrophecyPlusPlus
from repro.gpu.arch import tesla_c1060
from repro.pcie.presets import pcie_gen2_bus
from repro.sweep import SweepEngine
from repro.transform.space import TransformationSpace
from repro.workloads.base import Dataset
from repro.workloads.cfd import Cfd

_POINTS = 50


def _sweep_inputs():
    """Pre-built skeletons/hints/sizes for a 50-point CFD size sweep."""
    workload = Cfd()
    datasets = [
        Dataset(str(i), 90_000 + 2_048 * i) for i in range(_POINTS)
    ]
    programs = [workload.skeleton(d) for d in datasets]
    hints = [workload.hints(d) for d in datasets]
    sizes = [d.size for d in datasets]
    return programs, hints, sizes


def _engines():
    space = TransformationSpace.default()
    sweep = SweepEngine(tesla_c1060(), pcie_gen2_bus(), space)
    point = GrophecyPlusPlus(tesla_c1060(), pcie_gen2_bus(), space)
    return sweep, point


def test_sweep_engine(benchmark):
    sweep, _ = _engines()
    programs, hints, sizes = _sweep_inputs()
    benchmark.pedantic(
        lambda: sweep.sweep(programs, hints=hints, sizes=sizes),
        rounds=3,
        warmup_rounds=1,
    )


def test_point_at_a_time(benchmark):
    _, point = _engines()
    programs, hints, _ = _sweep_inputs()
    benchmark.pedantic(
        lambda: [
            point.project(program, hint)
            for program, hint in zip(programs, hints)
        ],
        rounds=3,
        warmup_rounds=1,
    )


def test_sweep_is_at_least_5x_faster():
    """The PR's acceptance bar, measured directly in points/second."""
    sweep, point = _engines()
    programs, hints, sizes = _sweep_inputs()

    def run_sweep():
        return sweep.sweep(programs, hints=hints, sizes=sizes)

    def run_points():
        return [
            point.project(program, hint)
            for program, hint in zip(programs, hints)
        ]

    # Identical results first — speed means nothing if the engine drifts.
    assert run_sweep() == run_points()
    assert sweep.stats["groups_shared"] == 1
    assert sweep.stats["plans_from_template"] == _POINTS - 3

    def measure(run, rounds):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    # One retry: a transient scheduler stall during the (short) sweep
    # measurement can dent the ratio; a real regression fails twice.
    ratio = 0.0
    for _ in range(2):
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            swept = measure(run_sweep, rounds=5)
            pointwise = measure(run_points, rounds=3)
        finally:
            if gc_was_enabled:
                gc.enable()
            gc.collect()
        ratio = pointwise / swept
        print(
            f"\nsweep: {_POINTS / swept:,.0f} points/s   "
            f"point-at-a-time: {_POINTS / pointwise:,.0f} points/s   "
            f"ratio: {ratio:.1f}x"
        )
        if ratio >= 5.0:
            break
    assert ratio >= 5.0
