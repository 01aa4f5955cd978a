"""Tests for the explorer's diagnostic table and the new arch preset."""

import pytest

from repro.gpu import (
    GpuPerformanceModel,
    quadro_fx_5600,
    tesla_c1060,
)
from repro.transform.explorer import TOP_K, explore_kernel
from repro.transform.space import TransformationSpace
from repro.workloads import HotSpot


@pytest.fixture(scope="module")
def projection():
    w = HotSpot()
    program = w.skeleton(w.dataset("512 x 512"))
    model = GpuPerformanceModel(quadro_fx_5600())
    return explore_kernel(program.kernels[0], program, model)


class TestSearchTable:
    def test_full_table(self, projection):
        table = projection.as_table()
        # The kept head, plus one row counting the skipped mappings.
        assert projection.skipped > 0
        assert len(table.rows) == len(projection.candidates) + 1
        text = table.render()
        assert "<- best" in text
        assert "transformation search" in text
        assert f"({projection.search_width} mappings)" in text

    def test_fastest_first(self, projection):
        table = projection.as_table(top=5)
        assert len(table.rows) == len(projection.candidates) == TOP_K
        times = [float(r[1]) for r in table.rows]
        assert times == sorted(times)
        assert "<- best" in table.rows[0][0]

    def test_skipped_rows_included(self):
        w = HotSpot()
        program = w.skeleton(w.dataset("512 x 512"))
        model = GpuPerformanceModel(quadro_fx_5600())
        space = TransformationSpace(
            block_sizes=(256, 1024),  # 1024 unlaunchable on FX 5600
            shared_memory_options=(False,),
            unroll_factors=(1,),
        )
        proj = explore_kernel(program.kernels[0], program, model, space)
        text = proj.as_table().render()
        assert "skipped:" in text


class TestTeslaPreset:
    def test_parameters(self):
        arch = tesla_c1060()
        assert arch.num_sms == 30
        assert not arch.strict_coalescing

    def test_stencil_faster_than_g80(self):
        """Relaxed coalescing + more bandwidth: the stencil speeds up."""
        w = HotSpot()
        program = w.skeleton(w.dataset("1024 x 1024"))
        old = explore_kernel(
            program.kernels[0], program,
            GpuPerformanceModel(quadro_fx_5600()),
        )
        new = explore_kernel(
            program.kernels[0], program,
            GpuPerformanceModel(tesla_c1060()),
        )
        assert new.seconds < old.seconds


class TestBestMarkerSurvivesReconstruction:
    """Regression: the '<- best' marker used to hinge on ``candidate is
    self.best`` identity, which breaks once a cache round-trip or a
    merged parallel chunk rebuilds equal-but-distinct candidates."""

    def test_marker_with_rebuilt_best(self, projection):
        import dataclasses

        best = projection.best
        clone = dataclasses.replace(best)
        assert clone is not best and clone.config == best.config
        rebuilt = dataclasses.replace(projection, best=clone)
        text = rebuilt.as_table(top=3).render()
        assert "<- best" in text

    def test_marker_unique(self, projection):
        text = projection.as_table().render()
        assert text.count("<- best") == 1
