"""Sweep argmin vs the full-sweep oracle.

The contract: :meth:`SweepEngine.argmin` returns exactly the point a
full sweep's ``min((total_seconds(1), index))`` would pick — identical
index, dataclass-equal projection, bitwise-equal seconds — for sweeps
of one point up to a workload's whole dataset axis.
"""

import pytest

from repro.gpu.arch import quadro_fx_5600
from repro.pcie.presets import pcie_gen1_bus, pcie_gen2_bus
from repro.sweep import SweepEngine
from repro.workloads.registry import all_workloads, get_workload


def _engine(bus=None):
    return SweepEngine(quadro_fx_5600(), bus or pcie_gen1_bus())


def _oracle(engine, workload, datasets=None):
    """(index, projections, totals) of the full sweep."""
    projections = engine.sweep_workload(workload, datasets=datasets)
    totals = [p.total_seconds(1) for p in projections]
    index = min(range(len(totals)), key=lambda i: (totals[i], i))
    return index, projections, totals


class TestArgminOracle:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    @pytest.mark.parametrize("points", [1, 2, 4, 100])
    def test_matches_full_sweep(self, name, points):
        """Argmin over the first ``points`` datasets (all of them when
        the workload has fewer): single points, sweeps at every anchor,
        and template-served sweeps."""
        workload = get_workload(name)
        datasets = list(workload.datasets())[:points]
        engine = _engine(pcie_gen2_bus())
        expected, projections, totals = _oracle(engine, workload, datasets)
        result = engine.argmin_workload(workload, datasets=datasets)
        assert result.index == expected
        assert result.projection == projections[expected]
        assert result.seconds == totals[expected]  # bitwise
        assert result.stats["points"] == len(datasets)

    def test_explicit_datasets_subset(self):
        workload = get_workload("SRAD")
        datasets = list(workload.datasets())[:2]
        engine = _engine()
        full = engine.sweep_workload(workload, datasets=datasets)
        totals = [p.total_seconds(1) for p in full]
        expected = min(range(len(totals)), key=lambda i: (totals[i], i))
        result = engine.argmin_workload(workload, datasets=datasets)
        assert result.index == expected
        assert result.projection == full[expected]

    def test_validation(self):
        engine = _engine()
        with pytest.raises(ValueError, match="at least one"):
            engine.argmin([])
        workload = get_workload("CFD")
        programs = [
            workload.skeleton(d) for d in list(workload.datasets())[:2]
        ]
        with pytest.raises(ValueError, match="hints do not match"):
            engine.argmin(programs, hints=[None])
        with pytest.raises(ValueError, match="sizes do not match"):
            engine.argmin(programs, sizes=[1])
