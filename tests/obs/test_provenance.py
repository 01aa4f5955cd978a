"""Provenance exactness: components must sum to the projection, bitwise."""

import pytest

from repro.core.projector import GrophecyPlusPlus
from repro.gpu.arch import quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.obs.provenance import ProjectionProvenance, build_provenance
from repro.pcie.presets import pcie_gen1_bus, pcie_gen2_bus
from repro.transform.explorer import explore_configs
from repro.transform.space import TransformationSpace
from repro.workloads.registry import all_workloads, get_workload


def _project(workload_name, bus=None):
    workload = get_workload(workload_name)
    dataset = workload.datasets()[0]
    bus = bus or pcie_gen1_bus()
    projection = GrophecyPlusPlus(quadro_fx_5600(), bus).project(
        workload.skeleton(dataset), workload.hints(dataset)
    )
    return projection, bus


class TestExactness:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_components_sum_to_total_exactly(self, name):
        projection, bus = _project(name)
        provenance = build_provenance(projection, bus)
        assert (
            provenance.kernel_seconds
            + provenance.transfer_seconds
            + provenance.setup_seconds
            == provenance.total_seconds
        )
        assert provenance.total_seconds == projection.total_seconds(1)
        assert provenance.kernel_seconds == projection.kernel_seconds
        assert provenance.transfer_seconds == projection.transfer_seconds

    def test_per_transfer_alpha_beta_split_is_exact(self):
        projection, bus = _project("CFD")
        provenance = build_provenance(projection, bus)
        assert provenance.transfers
        for transfer, seconds in zip(
            provenance.transfers, projection.per_transfer_seconds
        ):
            assert transfer.alpha_seconds + transfer.beta_seconds == seconds
            assert transfer.seconds == seconds

    def test_per_kernel_seconds_match_the_winners(self):
        projection, bus = _project("SRAD")
        provenance = build_provenance(projection, bus)
        assert len(provenance.kernels) == len(projection.kernels.kernels)
        for prov, kp in zip(
            provenance.kernels, projection.kernels.kernels
        ):
            assert prov.seconds == kp.seconds
            assert prov.best_mapping == kp.best.config.label()
            assert prov.regime == kp.best.breakdown.regime
            assert prov.search_width == kp.search_width

    def test_wrong_bus_is_rejected(self):
        projection, _ = _project("HotSpot", bus=pcie_gen1_bus())
        with pytest.raises(ValueError, match="pass the bus"):
            build_provenance(projection, pcie_gen2_bus())


class TestRunnerUp:
    def test_runner_up_gap_is_nonnegative_and_second_best(self):
        projection, bus = _project("HotSpot")
        provenance = build_provenance(projection, bus)
        for prov, kp in zip(
            provenance.kernels, projection.kernels.kernels
        ):
            if len(kp.candidates) < 2:
                assert prov.runner_up_mapping is None
                continue
            assert prov.runner_up_mapping is not None
            assert prov.runner_up_gap_seconds >= 0.0
            others = [
                c.seconds
                for c in kp.candidates
                if c.config != kp.best.config
            ]
            assert (
                prov.runner_up_gap_seconds
                == min(others) - kp.best.seconds
            )


class TestSearchCounts:
    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_counts_equal_the_reference_full_table(self, name):
        """The projection keeps only the ranking head; provenance must
        still report the full search, as the scalar table counts it."""
        workload = get_workload(name)
        program = workload.skeleton(workload.datasets()[0])
        projection, bus = _project(name)
        provenance = build_provenance(projection, bus)
        model = GpuPerformanceModel(quadro_fx_5600())
        space = TransformationSpace.default()
        for prov, kernel in zip(provenance.kernels, program.kernels):
            table, skipped = explore_configs(
                kernel, program, model, space.configs()
            )
            assert (prov.configs_explored, prov.configs_skipped) == (
                len(table),
                len(skipped),
            )
            assert prov.search_width == len(space)
            ranked = sorted(table, key=lambda c: c.seconds)
            assert prov.best_mapping == ranked[0].config.label()
            if len(ranked) > 1:
                assert prov.runner_up_mapping == ranked[1].config.label()
                assert prov.runner_up_gap_seconds == (
                    ranked[1].seconds - ranked[0].seconds
                )


class TestRoundTripAndViews:
    def test_dict_and_json_round_trip_exactly(self):
        projection, bus = _project("CFD")
        provenance = build_provenance(projection, bus)
        assert (
            ProjectionProvenance.from_dict(provenance.to_dict())
            == provenance
        )
        assert (
            ProjectionProvenance.from_json(provenance.to_json())
            == provenance
        )

    def test_shares_sum_to_one_without_setup(self):
        projection, bus = _project("CFD")
        provenance = build_provenance(projection, bus)
        assert provenance.setup_seconds == 0.0
        assert provenance.kernel_share + provenance.transfer_share == (
            pytest.approx(1.0)
        )

    def test_alpha_beta_totals_cover_transfer_time(self):
        projection, bus = _project("CFD")
        provenance = build_provenance(projection, bus)
        assert (
            provenance.alpha_seconds + provenance.beta_seconds
            == pytest.approx(provenance.transfer_seconds)
        )

    def test_explain_mentions_every_kernel_and_transfer(self):
        projection, bus = _project("SRAD")
        text = build_provenance(projection, bus).explain()
        for kp in projection.kernels.kernels:
            assert kp.kernel in text
        for transfer in projection.plan.transfers:
            assert transfer.array in text
        assert "runner-up" in text or "sole candidate" in text
