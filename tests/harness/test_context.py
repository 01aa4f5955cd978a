"""Tests for the shared experiment context."""

import pytest

from repro.harness.context import ExperimentContext
from repro.workloads import HotSpot, get_workload


class TestExperimentContext:
    def test_calibration_matches_paper_scale(self, ctx):
        # alpha ~ 10us, bandwidth ~ 2.5 GB/s on the pinned H2D link.
        assert 5e-6 < ctx.bus_model.h2d.alpha < 20e-6
        assert 2.0e9 < ctx.bus_model.h2d.bandwidth < 3.0e9

    def test_projection_cached(self, ctx):
        w = HotSpot()
        ds = w.datasets()[1]
        assert ctx.projection(w, ds) is ctx.projection(w, ds)

    def test_measured_cached_and_stable(self, ctx):
        w = HotSpot()
        ds = w.datasets()[1]
        assert ctx.measured(w, ds) is ctx.measured(w, ds)

    def test_measured_kernel_matches_targets(self, ctx):
        """The replayed calibration reproduces Table I kernel times."""
        w = HotSpot()
        for ds in w.datasets():
            target = w.testbed_targets(ds).kernel_seconds
            measured = ctx.measured(w, ds).kernel_seconds
            assert measured == pytest.approx(target, rel=0.05)

    def test_measured_cpu_matches_anchor(self, ctx):
        w = get_workload("Stassuij")
        ds = w.datasets()[0]
        assert ctx.measured(w, ds).cpu_seconds == pytest.approx(
            2.85e-3, rel=0.05
        )

    def test_per_transfer_alignment(self, ctx):
        w = get_workload("CFD")
        ds = w.datasets()[0]
        plan = ctx.projection(w, ds).plan
        measured = ctx.measured(w, ds)
        assert len(measured.per_transfer_seconds) == plan.transfer_count

    def test_factors_are_order_one(self, ctx):
        """Replay factors should be modest corrections, not magic."""
        for name in ("CFD", "HotSpot", "SRAD", "Stassuij"):
            w = get_workload(name)
            for ds in w.datasets():
                f = ctx.factors(w, ds)
                assert 0.2 < f.kernel_factor < 20.0, (name, ds.label)
                assert 0.2 < f.cpu_factor < 20.0, (name, ds.label)

    def test_seeds_isolate_contexts(self):
        a = ExperimentContext(seed=1)
        b = ExperimentContext(seed=2)
        w = HotSpot()
        ds = w.datasets()[0]
        assert (
            a.measured(w, ds).kernel_seconds
            != b.measured(w, ds).kernel_seconds
        )

    def test_report_cached(self, ctx):
        """Satellite of the sweep PR: one report object per
        (workload, dataset) key, not a fresh wrapper per call."""
        w = HotSpot()
        ds = w.datasets()[0]
        assert ctx.report(w, ds) is ctx.report(w, ds)


class TestSweepWiring:
    def test_projection_equals_per_point_path(self, ctx):
        """The sweep-served projections must be dataclass-equal to what
        the context's per-point projector computes."""
        w = get_workload("CFD")
        for ds in w.datasets():
            assert ctx.projection(w, ds) == ctx.projector.project(
                w.skeleton(ds), w.hints(ds)
            )

    def test_first_projection_sweeps_whole_workload(self):
        context = ExperimentContext(seed=2013)
        w = get_workload("SRAD")
        datasets = w.datasets()
        context.projection(w, datasets[0])
        # Every sibling dataset was projected by the same structural pass.
        for ds in datasets:
            assert (w.name, ds.label) in context._projections

    def test_project_all_reuses_cached_points(self, ctx):
        w = get_workload("CFD")
        before = [ctx.projection(w, ds) for ds in w.datasets()]
        after = ctx.project_all(w)
        assert all(a is b for a, b in zip(after, before))

    def test_sweep_engine_is_lazy_and_shared(self):
        context = ExperimentContext(seed=2013)
        assert context._sweep_engine is None
        engine = context.sweep_engine
        assert engine is context.sweep_engine
        assert engine.model is context.projector.model
