"""Round-trip property: summary -> dict/JSON -> summary is the identity.

The service cache stores summaries as JSON on disk, so exact (not
approximate) round-tripping is what makes a cache hit provably
equivalent to recomputation.  Hypothesis drives arbitrary summaries
through the dict and JSON forms; a concrete test does the same for a
summary produced by the real pipeline.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import (
    KernelSummary,
    ProjectionSummary,
    TransferSummary,
    summarize_projection,
)
from repro.gpu.arch import quadro_fx_5600
from repro.obs.provenance import (
    KernelProvenance,
    ProjectionProvenance,
    TransferProvenance,
    build_provenance,
)
from repro.pcie.presets import pcie_gen1_bus
from repro.core.projector import GrophecyPlusPlus
from repro.workloads.registry import get_workload

# Finite floats only: NaN breaks equality and the canonical JSON form
# rejects it by design (allow_nan=False).
finite = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
name = st.text(min_size=1, max_size=24)

kernels = st.builds(
    KernelSummary,
    name=name,
    seconds=finite,
    best_mapping=st.text(max_size=16),
    regime=st.sampled_from(["MWP", "CWP", "FEW_WARPS"]),
    search_width=st.integers(1, 10_000),
)

transfers = st.builds(
    TransferSummary,
    array=name,
    direction=st.sampled_from(["H2D", "D2H"]),
    bytes=st.integers(1, 1 << 40),
    elements=st.integers(1, 1 << 32),
    seconds=finite,
    conservative=st.booleans(),
)

kernel_provenances = st.builds(
    KernelProvenance,
    name=name,
    best_mapping=st.text(max_size=16),
    regime=st.sampled_from(["MWP", "CWP", "FEW_WARPS"]),
    mwp=finite,
    cwp=finite,
    seconds=finite,
    runner_up_mapping=st.none() | st.text(max_size=16),
    runner_up_gap_seconds=st.none() | finite,
    configs_explored=st.integers(0, 10_000),
    configs_skipped=st.integers(0, 10_000),
)

transfer_provenances = st.builds(
    TransferProvenance,
    array=name,
    direction=st.sampled_from(["H2D", "D2H"]),
    bytes=st.integers(0, 1 << 40),
    seconds=finite,
    alpha_seconds=finite,
    beta_seconds=finite,
    conservative=st.booleans(),
)

provenances = st.builds(
    ProjectionProvenance,
    program=name,
    kernel_seconds=finite,
    transfer_seconds=finite,
    setup_seconds=finite,
    total_seconds=finite,
    kernels=st.tuples() | st.tuples(kernel_provenances),
    transfers=st.tuples() | st.tuples(transfer_provenances),
)

summaries = st.builds(
    ProjectionSummary,
    program=name,
    kernel_seconds=finite,
    transfer_seconds=finite,
    setup_seconds=finite,
    kernels=st.tuples() | st.tuples(kernels) | st.tuples(kernels, kernels),
    transfers=st.tuples()
    | st.tuples(transfers)
    | st.tuples(transfers, transfers),
    provenance=st.none() | provenances,
)


class TestRoundTripProperty:
    @given(summaries)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip_is_identity(self, summary):
        assert ProjectionSummary.from_dict(summary.to_dict()) == summary

    @given(summaries)
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_is_identity(self, summary):
        assert ProjectionSummary.from_json(summary.to_json()) == summary

    @given(summaries)
    @settings(max_examples=50, deadline=None)
    def test_dict_form_is_json_safe_and_stable(self, summary):
        a = json.dumps(summary.to_dict(), sort_keys=True)
        b = json.dumps(
            ProjectionSummary.from_dict(summary.to_dict()).to_dict(),
            sort_keys=True,
        )
        assert a == b

    @given(summaries, st.integers(1, 1000))
    @settings(max_examples=50, deadline=None)
    def test_derived_quantities_survive(self, summary, iterations):
        rebuilt = ProjectionSummary.from_dict(summary.to_dict())
        assert rebuilt.total_seconds(iterations) == summary.total_seconds(
            iterations
        )
        assert rebuilt.total_bytes == summary.total_bytes
        assert rebuilt.transfer_count == summary.transfer_count


class TestProvenanceAttachment:
    @given(summaries)
    @settings(max_examples=50, deadline=None)
    def test_without_provenance_strips_only_provenance(self, summary):
        stripped = summary.without_provenance()
        assert stripped.provenance is None
        assert stripped == summary.without_provenance()
        assert "provenance" not in stripped.to_dict()
        rebuilt = dict(stripped.to_dict())
        if summary.provenance is not None:
            rebuilt["provenance"] = summary.provenance.to_dict()
        assert ProjectionSummary.from_dict(rebuilt) == summary

    def test_cache_key_is_unchanged_by_provenance(self):
        """The engine fingerprint must ignore the provenance flag."""
        from repro.service.engine import (
            ProjectionEngine,
            ProjectionRequest,
        )

        workload = get_workload("HotSpot")
        dataset = workload.datasets()[0]
        request = ProjectionRequest(
            program=workload.skeleton(dataset),
            hints=workload.hints(dataset),
        )
        plain = ProjectionEngine(provenance=False)
        attributed = ProjectionEngine(provenance=True)
        assert plain.fingerprint(request) == attributed.fingerprint(
            request
        )
        bare = plain.project(request).summary
        rich = attributed.project(request).summary
        assert rich.provenance is not None
        assert rich.without_provenance() == bare


class TestRealProjectionRoundTrip:
    def test_pipeline_summary_round_trips_exactly(self):
        workload = get_workload("HotSpot")
        dataset = workload.datasets()[0]
        projection = GrophecyPlusPlus(
            quadro_fx_5600(), pcie_gen1_bus()
        ).project(workload.skeleton(dataset), workload.hints(dataset))
        summary = summarize_projection(projection)
        assert ProjectionSummary.from_json(summary.to_json()) == summary
        assert summary.kernel_seconds == projection.kernel_seconds
        assert summary.transfer_seconds == projection.transfer_seconds

    def test_pipeline_summary_with_provenance_round_trips(self):
        workload = get_workload("HotSpot")
        dataset = workload.datasets()[0]
        bus = pcie_gen1_bus()
        projection = GrophecyPlusPlus(quadro_fx_5600(), bus).project(
            workload.skeleton(dataset), workload.hints(dataset)
        )
        summary = summarize_projection(
            projection, build_provenance(projection, bus)
        )
        rebuilt = ProjectionSummary.from_json(summary.to_json())
        assert rebuilt == summary
        assert rebuilt.provenance == summary.provenance
        assert (
            rebuilt.provenance.kernel_seconds
            + rebuilt.provenance.transfer_seconds
            + rebuilt.provenance.setup_seconds
            == rebuilt.provenance.total_seconds
        )
