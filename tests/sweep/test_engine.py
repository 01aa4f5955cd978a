"""Sweep-engine equivalence: every point equals the per-point pipeline.

The contract under test (``docs/SWEEP.md``): projections served through
the shared-structure fast path are *dataclass-equal* to projecting each
point individually — ranking heads and search counts included — and every
certificate failure falls back to the exact pipeline rather than
approximating.
"""

import pytest

from repro.core.projector import GrophecyPlusPlus
from repro.gpu.arch import quadro_fx_5600
from repro.pcie.presets import bus_for_generation, pcie_gen1_bus
from repro.sweep import SweepEngine
from repro.transform.space import TransformationSpace
from repro.workloads.base import Dataset
from repro.workloads.cfd import Cfd
from repro.workloads.registry import get_workload, paper_workloads


@pytest.fixture(scope="module")
def space():
    return TransformationSpace.default()


def _pair(space, **kwargs):
    """A sweep engine and its per-point oracle, identically configured."""
    batched = kwargs.pop("batched_transfers", False)
    if kwargs.pop("wide", False):
        space = TransformationSpace.wide()
    assert not kwargs
    sweep = SweepEngine(
        quadro_fx_5600(),
        pcie_gen1_bus(),
        space,
        batched_transfers=batched,
    )
    point = GrophecyPlusPlus(
        quadro_fx_5600(),
        pcie_gen1_bus(),
        space,
        batched_transfers=batched,
    )
    return sweep, point


class TestWorkloadEquivalence:
    @pytest.mark.parametrize(
        "name", [w.name for w in paper_workloads()]
    )
    def test_figure_sweeps_equal_per_point(self, space, name):
        workload = get_workload(name)
        sweep, point = _pair(space)
        swept = sweep.sweep_workload(workload)
        for dataset, projection in zip(workload.datasets(), swept):
            exact = point.project(
                workload.skeleton(dataset), workload.hints(dataset)
            )
            assert projection == exact, (name, dataset.label)

    @pytest.mark.parametrize(
        "variant",
        [
            {"wide": True},
            {"batched_transfers": True},
        ],
        ids=["wide", "batched"],
    )
    def test_variants_equal_per_point(self, space, variant):
        workload = Cfd()
        sweep, point = _pair(space, **variant)
        swept = sweep.sweep_workload(workload)
        for dataset, projection in zip(workload.datasets(), swept):
            exact = point.project(
                workload.skeleton(dataset), workload.hints(dataset)
            )
            assert projection == exact, dataset.label

    def test_check_mode_passes_on_paper_workloads(self, space):
        sweep, _ = _pair(space)
        for workload in paper_workloads():
            sweep.sweep_workload(workload, check=True)


class TestManyPointSweep:
    POINTS = 8

    def _inputs(self, workload):
        datasets = [
            Dataset(str(i), 90_000 + 4_096 * i) for i in range(self.POINTS)
        ]
        programs = [workload.skeleton(d) for d in datasets]
        hints = [workload.hints(d) for d in datasets]
        sizes = [d.size for d in datasets]
        return programs, hints, sizes

    def test_template_serves_non_anchor_points(self, space):
        sweep, point = _pair(space)
        programs, hints, sizes = self._inputs(Cfd())
        swept = sweep.sweep(programs, hints=hints, sizes=sizes)
        assert sweep.stats == {
            "arches": 1,
            "points": self.POINTS,
            "coalescing_groups": 1,
            "groups_shared": 1,
            "plans_computed": self.POINTS,
            "plans_from_template": self.POINTS - 3,
            "plans_reused_across_arches": 0,
        }
        for program, hint, projection in zip(programs, hints, swept):
            assert projection == point.project(program, hint)

    def test_without_size_axis_every_plan_is_exact(self, space):
        sweep, point = _pair(space)
        programs, hints, _ = self._inputs(Cfd())
        swept = sweep.sweep(programs, hints=hints)
        assert sweep.stats["plans_from_template"] == 0
        assert sweep.stats["groups_shared"] == 1
        for program, hint, projection in zip(programs, hints, swept):
            assert projection == point.project(program, hint)

    def test_misleading_size_axis_falls_back_exactly(self, space):
        """A size axis that does not describe the programs (all points
        claim the same size) breaks the anchor certificate; every
        non-anchor plan must then come from the exact analyzer — and the
        results must not change."""
        sweep, point = _pair(space)
        programs, hints, _ = self._inputs(Cfd())
        swept = sweep.sweep(
            programs, hints=hints, sizes=[7] * self.POINTS
        )
        assert sweep.stats["plans_from_template"] == 0
        for program, hint, projection in zip(programs, hints, swept):
            assert projection == point.project(program, hint)

    def test_structurally_mixed_sweep_falls_back_exactly(self, space):
        """Points with different kernel structure share nothing; the
        engine must run the whole per-point pipeline for each."""
        sweep, point = _pair(space)
        mixed = []
        for workload in (Cfd(), get_workload("HotSpot")):
            dataset = workload.datasets()[0]
            mixed.append(
                (workload.skeleton(dataset), workload.hints(dataset))
            )
        swept = sweep.sweep(
            [p for p, _ in mixed], hints=[h for _, h in mixed]
        )
        assert sweep.stats["groups_shared"] == 0
        for (program, hint), projection in zip(mixed, swept):
            assert projection == point.project(program, hint)


class TestSweepValidation:
    def test_empty_sweep(self, space):
        sweep, _ = _pair(space)
        assert sweep.sweep([]) == []

    def test_mismatched_hints_raise(self, space):
        sweep, _ = _pair(space)
        workload = Cfd()
        programs = [workload.skeleton(d) for d in workload.datasets()]
        with pytest.raises(ValueError, match="hints"):
            sweep.sweep(programs, hints=[None])

    def test_mismatched_sizes_raise(self, space):
        sweep, _ = _pair(space)
        workload = Cfd()
        programs = [workload.skeleton(d) for d in workload.datasets()]
        with pytest.raises(ValueError, match="sizes"):
            sweep.sweep(programs, sizes=[1, 2])


class TestBusSweep:
    def test_bus_sweep_matches_direct_pricing(self, space):
        sweep, point = _pair(space)
        workload = Cfd()
        dataset = workload.datasets()[-1]
        plan = point.project(
            workload.skeleton(dataset), workload.hints(dataset)
        ).plan
        buses = [bus_for_generation(g) for g in (1, 2, 3)]
        points = sweep.sweep_buses(plan, buses)
        for bus, swept in zip(buses, points):
            per = tuple(bus.predict_plan_by_transfer(plan))
            assert swept.per_transfer_seconds == per
            assert swept.transfer_seconds == sum(per)
            assert swept.bus is bus
        # Newer generations move the same plan strictly faster.
        assert (
            points[0].transfer_seconds
            > points[1].transfer_seconds
            > points[2].transfer_seconds
        )
