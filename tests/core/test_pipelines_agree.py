"""Differential test: every serving path runs the one projection pipeline.

``GrophecyPlusPlus.project``, the service engine (kernel cache on and
off), the sweep engine and a row of the architecture grid all assemble
their answers through :func:`repro.core.projector.plan_transfers` and
:func:`repro.core.projector.integrate`, so for every registered
workload and dataset they must return ``==`` projections —
``setup_seconds`` included.  The serving paths read their plans through
the process-wide plan store, so a second pass holds them to the
uncached oracle with every plan already stored.
"""

from dataclasses import replace

import pytest

from repro.core.projector import PLAN_STORE, GrophecyPlusPlus
from repro.gpu.registry import get_arch
from repro.pcie.allocation import cuda23_era_allocation_model
from repro.pcie.presets import pcie_gen1_bus
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.sweep import SweepEngine
from repro.workloads.registry import all_workloads

#: The paper's GPU plus one with different coalescing rules.
ARCHES = ("quadro_fx_5600", "fermi_gtx_480")


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_every_path_returns_the_same_projection(workload):
    bus = pcie_gen1_bus()
    datasets = workload.datasets()
    programs = [workload.skeleton(d) for d in datasets]
    hints = [workload.hints(d) for d in datasets]
    grid = SweepEngine(get_arch(ARCHES[0]), bus).sweep_arch_grid(
        programs, ARCHES, hints=hints, sizes=[d.size for d in datasets]
    )
    for row, arch_id in zip(grid, ARCHES):
        arch = get_arch(arch_id)
        projector = GrophecyPlusPlus(arch, bus)
        allocating = GrophecyPlusPlus(
            arch, bus, allocation=cuda23_era_allocation_model()
        )
        engines = [
            ProjectionEngine(arch=arch, bus=bus, kernel_cache_capacity=n)
            for n in (512, 0)
        ]
        swept = SweepEngine(arch, bus).sweep_workload(workload)
        for index, (program, hint) in enumerate(zip(programs, hints)):
            expected = projector.project(program, hint)
            served = [
                engine.project(ProjectionRequest(program, hint)).projection
                for engine in engines
            ]
            label = (arch_id, datasets[index].label)
            assert served == [expected, expected], label
            assert swept[index] == expected, label
            assert row.projections[index] == expected, label

            with_setup = allocating.project(program, hint)
            assert with_setup.setup_seconds > 0.0, label
            assert with_setup != expected, label
            assert replace(with_setup, setup_seconds=0.0) == expected, label


@pytest.mark.parametrize("batched", (False, True), ids=("plain", "batched"))
@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_a_warm_plan_store_changes_no_answer(workload, batched):
    bus = pcie_gen1_bus()
    datasets = workload.datasets()
    programs = [workload.skeleton(d) for d in datasets]
    hints = [workload.hints(d) for d in datasets]
    for program, hint in zip(programs, hints):
        PLAN_STORE.plan(program, hint, batched)
    misses = PLAN_STORE.stats()["misses"]

    grid = SweepEngine(
        get_arch(ARCHES[0]), bus, batched_transfers=batched
    ).sweep_arch_grid(
        programs, ARCHES, hints=hints, sizes=[d.size for d in datasets]
    )
    for row, arch_id in zip(grid, ARCHES):
        arch = get_arch(arch_id)
        oracle = GrophecyPlusPlus(arch, bus, batched_transfers=batched)
        engine = ProjectionEngine(arch=arch, bus=bus)
        for index, (program, hint) in enumerate(zip(programs, hints)):
            expected = oracle.project(program, hint)
            served = engine.project(
                ProjectionRequest(program, hint, batched_transfers=batched)
            ).projection
            label = (arch_id, datasets[index].label, batched)
            assert served == expected, label
            assert row.projections[index] == expected, label
    # Every serving-path plan above came from the store.
    assert PLAN_STORE.stats()["misses"] == misses
