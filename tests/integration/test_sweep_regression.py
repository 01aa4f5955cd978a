"""Figure CSVs must be byte-identical with and without the sweep engine.

``ExperimentContext`` serves fig 7-12 (and the PCIe what-if) through
the parametric sweep engine.  This regression pins the engine's
exactness at the artifact level: the exported CSV text of every
figure — the files under ``results/`` — is compared byte-for-byte
between the context and one whose sweeps project point by point
through the context's own ``GrophecyPlusPlus``.
"""

import pytest

from repro.harness.context import ExperimentContext
from repro.harness.export import to_csv
from repro.harness.speedups import (
    run_speedup_vs_iterations,
    run_speedup_vs_size,
)
from repro.pcie.presets import bus_for_generation
from repro.workloads import get_workload

SIZE_FIGURES = {"fig7": "CFD", "fig9": "HotSpot", "fig11": "SRAD"}
ITER_FIGURES = {"fig8": "CFD", "fig10": "HotSpot", "fig12": "SRAD"}


class _PerPointSweeps:
    """A stand-in sweep engine: every point through the projector."""

    def __init__(self, projector):
        self._projector = projector

    def sweep_workload(self, workload, datasets=None):
        return [
            self._projector.project(workload.skeleton(d), workload.hints(d))
            for d in (datasets or workload.datasets())
        ]


class _PerPointContext(ExperimentContext):
    @property
    def sweep_engine(self):
        return _PerPointSweeps(self.projector)


@pytest.fixture(scope="module")
def sweep_ctx():
    return ExperimentContext(seed=2013)


@pytest.fixture(scope="module")
def point_ctx():
    return _PerPointContext(seed=2013)


class TestFigureCsvRegression:
    @pytest.mark.parametrize("fig", sorted(SIZE_FIGURES))
    def test_size_figures_identical(self, sweep_ctx, point_ctx, fig):
        workload = get_workload(SIZE_FIGURES[fig])
        swept = run_speedup_vs_size(sweep_ctx, workload)
        exact = run_speedup_vs_size(point_ctx, workload)
        assert swept == exact, fig
        assert to_csv(swept) == to_csv(exact), fig

    @pytest.mark.parametrize("fig", sorted(ITER_FIGURES))
    def test_iteration_figures_identical(self, sweep_ctx, point_ctx, fig):
        workload = get_workload(ITER_FIGURES[fig])
        swept = run_speedup_vs_iterations(sweep_ctx, workload)
        exact = run_speedup_vs_iterations(point_ctx, workload)
        assert swept == exact, fig
        assert to_csv(swept) == to_csv(exact), fig


class TestWhatIfRegression:
    def test_bus_sweep_matches_direct_pricing(self, sweep_ctx, point_ctx):
        """The sweep-engine what-if (fixed plan, many buses) reproduces
        per-bus ``predict_plan`` exactly for every paper projection."""
        workload = get_workload("Stassuij")
        dataset = workload.datasets()[0]
        plan = point_ctx.projection(workload, dataset).plan
        buses = [bus_for_generation(g) for g in (1, 2, 3)]
        points = sweep_ctx.sweep_engine.sweep_buses(plan, buses)
        for bus, point in zip(buses, points):
            assert point.transfer_seconds == bus.predict_plan(plan)
