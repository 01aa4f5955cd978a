"""The gated serving front-end: modes, fallbacks, caching, adapter."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.arch import gtx_280
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.service.jobs import parse_request
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.surrogate.engine import (
    SERVING_MODES,
    SurrogateBatchAdapter,
    SurrogateEngine,
    SurrogateResponse,
)
from repro.surrogate.store import StaleModelError
from repro.transform.space import TransformationSpace
from repro.util.store import BoundedStore

from tests.surrogate.conftest import request_for

#: A workload the small model was trained on and answers confidently.
SERVED = ("VectorAdd", "4M")
#: A workload the small model never saw (falls back out-of-domain).
UNSEEN = ("KMeans", None)


def inline_skeleton(n: int) -> str:
    """A 1-D three-point stencil over ``n`` elements, as skeleton text."""
    return (
        f"program stencil{n}\n"
        f"array a[{n}] f32\n"
        f"array b[{n}] f32\n"
        "kernel smooth\n"
        f"  parfor i in 1..{n - 1}\n"
        "  stmt flops=3\n"
        "    load a[i-1]\n"
        "    load a[i]\n"
        "    load a[i+1]\n"
        "    store b[i]\n"
    )


def counting_builds(surrogate, monkeypatch) -> list:
    """Record every prepared-template build ``surrogate`` runs."""
    builds = []
    build = surrogate._build

    def counted(request):
        builds.append(request)
        return build(request)

    monkeypatch.setattr(surrogate, "_build", counted)
    return builds


def unservable_request():
    """A program whose only kernel exposes no parallel loop."""
    pb = ProgramBuilder("noparallel")
    pb.array("a", (16,))
    kb = KernelBuilder("serial_only")
    kb.loop("i", 16)
    kb.load("a", "i").statement(flops=1)
    return ProjectionRequest(program=pb.kernel(kb).build())


class TestConstruction:
    def test_mode_validation(self, model, exact_engine):
        with pytest.raises(ValueError, match="serving mode"):
            SurrogateEngine(model, exact_engine, mode="bogus")
        for mode in SERVING_MODES:
            SurrogateEngine(model, exact_engine, mode=mode)

    def test_arch_mismatch_fails_fast(self, model, space):
        other = ProjectionEngine(arch=gtx_280(), space=space)
        with pytest.raises(StaleModelError, match="arch"):
            SurrogateEngine(model, other)

    def test_space_mismatch_fails_fast(self, model, arch):
        other = ProjectionEngine(
            arch=arch, space=TransformationSpace.wide()
        )
        with pytest.raises(StaleModelError, match="space"):
            SurrogateEngine(model, other)


class TestServing:
    def test_confident_query_is_served_by_the_model(self, surrogate):
        response = surrogate.project(request_for(*SERVED))
        assert response.path == "surrogate"
        assert response.provenance.reason == "accepted"
        assert response.estimate is not None
        assert response.response is None
        assert response.confidence is not None
        assert response.estimate.kernel_seconds > 0
        assert response.estimate.transfer_seconds > 0
        assert not response.cached

    def test_estimate_mappings_cover_every_kernel(self, surrogate):
        request = request_for(*SERVED)
        response = surrogate.project(request)
        names = [name for name, _label in response.estimate.mappings]
        assert names == [k.name for k in request.program.kernels]

    def test_surrogate_hit_counts(self, surrogate):
        before = surrogate.metrics.counter("surrogate_hits")
        surrogate.project(request_for(*SERVED))
        assert surrogate.metrics.counter("surrogate_hits") == before + 1

    def test_low_confidence_falls_back(self, surrogate):
        response = surrogate.project(request_for("CFD"))
        assert response.path == "exact"
        assert response.provenance.reason == "low_confidence"
        assert response.response is not None
        assert response.estimate is None

    def test_out_of_domain_falls_back(self, surrogate):
        response = surrogate.project(request_for(*UNSEEN))
        assert response.path == "exact"
        assert response.provenance.reason == "out_of_domain"

    def test_consensus_failure_reports_disagreement_confidence(
        self, surrogate, model
    ):
        # HotSpot's largest dataset makes the two members disagree with
        # this small model: the served confidence must be the measured
        # disagreement-case accuracy, not the consensus-suffix accuracy.
        response = surrogate.project(request_for("HotSpot", "1024 x 1024"))
        assert response.path == "exact"
        assert response.provenance.reason == "low_confidence"
        assert response.confidence == model.disagreement_accuracy

    def test_fallback_counts(self, surrogate):
        before = surrogate.metrics.counter("surrogate_fallbacks")
        surrogate.project(request_for("CFD"))
        assert (
            surrogate.metrics.counter("surrogate_fallbacks") == before + 1
        )

    def test_fallback_summary_is_bitwise_exact(
        self, surrogate, arch, space
    ):
        request = request_for("CFD")
        served = surrogate.project(request)
        direct = ProjectionEngine(
            arch=arch,
            bus=surrogate.exact.bus,
            space=space,
            explorer="reference",
        )
        expected = direct.project(request)
        assert (
            served.response.summary.to_json() == expected.summary.to_json()
        )

    def test_unservable_program_routes_to_the_exact_error(self, surrogate):
        with pytest.raises(ValueError, match="serial_only"):
            surrogate.project(unservable_request())


class TestModes:
    def test_exact_mode_bypasses_the_model(self, surrogate):
        response = surrogate.project(request_for(*SERVED), "exact")
        assert response.path == "exact"
        assert response.provenance.reason == "requested"
        assert response.response is not None

    def test_forced_mode_serves_below_threshold(
        self, model, exact_engine
    ):
        gated = SurrogateEngine(
            model.with_threshold(float("inf")), exact_engine
        )
        auto = gated.project(request_for(*SERVED))
        assert auto.path == "exact"
        forced = gated.project(request_for(*SERVED), "surrogate")
        assert forced.path == "surrogate"
        assert forced.provenance.reason == "forced"

    def test_unknown_mode_raises(self, surrogate):
        with pytest.raises(ValueError, match="serving mode"):
            surrogate.project(request_for(*SERVED), "bogus")

    def test_provenance_engine_forces_exact_in_auto(self, model, arch, space):
        traced = ProjectionEngine(
            arch=arch, space=space, provenance=True
        )
        gated = SurrogateEngine(model, traced)
        response = gated.project(request_for(*SERVED))
        assert response.path == "exact"
        assert response.provenance.reason == "provenance"
        # Forced mode still serves: provenance only gates auto.
        assert gated.project(request_for(*SERVED), "surrogate").path == (
            "surrogate"
        )

    def test_request_arch_mismatch_falls_back(self, surrogate):
        request = dataclasses.replace(
            request_for(*SERVED), arch=gtx_280()
        )
        response = surrogate.project(request)
        assert response.path == "exact"
        assert response.provenance.reason == "arch_mismatch"

    def test_registry_arch_mismatch_falls_back(self, surrogate):
        # A registry generation the model was never trained for must
        # take the clean arch_mismatch fallback, not a stale estimate.
        from repro.gpu.registry import get_arch

        request = dataclasses.replace(
            request_for(*SERVED), arch=get_arch("fermi_gtx_480")
        )
        before = surrogate.metrics.counter("surrogate_fallbacks")
        response = surrogate.project(request)
        assert response.path == "exact"
        assert response.provenance.reason == "arch_mismatch"
        assert (
            surrogate.metrics.counter("surrogate_fallbacks") == before + 1
        )

    def test_registry_arch_fallback_is_bitwise_exact(
        self, surrogate, arch, space
    ):
        from repro.gpu.registry import get_arch

        request = dataclasses.replace(
            request_for(*SERVED), arch=get_arch("fermi_gtx_480")
        )
        served = surrogate.project(request)
        direct = ProjectionEngine(
            arch=arch,
            bus=surrogate.exact.bus,
            space=space,
            explorer="reference",
        )
        expected = direct.project(request)
        assert (
            served.response.summary.to_json() == expected.summary.to_json()
        )

    def test_calibrated_registry_arch_still_serves(self, surrogate, arch):
        # The registry id of the trained arch assembles a value-equal
        # machine description: the fingerprint guard must NOT trip.
        from repro.gpu.registry import spec_for_arch, get_arch

        spec = spec_for_arch(arch)
        assert spec is not None
        request = dataclasses.replace(
            request_for(*SERVED), arch=get_arch(spec.id)
        )
        response = surrogate.project(request)
        assert response.path == "surrogate"
        assert response.provenance.reason == "accepted"

    def test_request_space_mismatch_falls_back(self, surrogate):
        request = dataclasses.replace(
            request_for(*SERVED), space=TransformationSpace.wide()
        )
        response = surrogate.project(request)
        assert response.path == "exact"
        assert response.provenance.reason == "space_mismatch"


class TestPreparedCache:
    def test_same_program_identity_is_prepared_once(self, surrogate):
        request = request_for(*SERVED)
        surrogate.project(request)
        prepared = surrogate.prepared.stats()
        for _ in range(3):
            surrogate.project(request)
        stats = surrogate.prepared.stats()
        assert stats["entries"] == prepared["entries"] == 1
        assert stats["misses"] == prepared["misses"]
        assert stats["hits"] == prepared["hits"] + 3

    def test_same_record_twice_is_prepared_once(
        self, surrogate, monkeypatch
    ):
        # Re-parsing the same inline text yields a new skeleton object
        # with the same content: its prepared template is reused.
        builds = counting_builds(surrogate, monkeypatch)
        record = {"skeleton": inline_skeleton(256)}
        for index in range(2):
            surrogate.project(
                parse_request(record, index, Path(".")), "surrogate"
            )
        assert len(builds) == 1
        assert len(surrogate.prepared) == 1

    def test_equal_registry_content_is_prepared_once(
        self, surrogate, monkeypatch
    ):
        builds = counting_builds(surrogate, monkeypatch)
        surrogate.project(request_for(*SERVED))
        surrogate.project(request_for(*SERVED))  # new skeleton object
        assert len(builds) == 1
        assert len(surrogate.prepared) == 1

    def test_prepared_cache_is_bounded(self, surrogate, monkeypatch):
        monkeypatch.setattr(surrogate, "prepared", BoundedStore(4))
        builds = counting_builds(surrogate, monkeypatch)
        for index, extent in enumerate(range(64, 64 + 10)):
            record = {"skeleton": inline_skeleton(extent)}
            surrogate.project(
                parse_request(record, index, Path(".")), "surrogate"
            )
            assert len(surrogate.prepared) <= 4
        assert len(builds) == 10
        # The most recent entries survive; the oldest were evicted.
        record = {"skeleton": inline_skeleton(64 + 9)}
        surrogate.project(parse_request(record, 0, Path(".")), "surrogate")
        assert len(builds) == 10
        record = {"skeleton": inline_skeleton(64)}
        surrogate.project(parse_request(record, 0, Path(".")), "surrogate")
        assert len(builds) == 11

    def test_iterations_scale_total_seconds(self, surrogate):
        once = surrogate.project(request_for(*SERVED))
        many = surrogate.project(request_for(*SERVED, iterations=10))
        estimate = many.estimate
        assert many.total_seconds == pytest.approx(
            estimate.kernel_seconds * 10 + estimate.transfer_seconds
        )
        assert once.total_seconds < many.total_seconds


class TestRecords:
    def test_surrogate_record_shape(self, surrogate):
        record = surrogate.project(request_for(*SERVED)).to_dict()
        assert record["ok"] is True
        assert record["path"] == "surrogate"
        assert record["serving"]["reason"] == "accepted"
        for key in (
            "seconds",
            "total_seconds",
            "kernel_seconds",
            "transfer_seconds",
            "log_band",
            "mappings",
        ):
            assert key in record, key

    def test_fallback_record_extends_the_engine_record(self, surrogate):
        record = surrogate.project(request_for("CFD")).to_dict()
        assert record["path"] == "exact"
        assert record["serving"]["reason"] == "low_confidence"
        assert record["ok"] is True
        assert "summary" in record or "total_seconds" in record

    def test_response_invariant(self):
        with pytest.raises(ValueError):
            SurrogateResponse(
                request_id="x",
                provenance=None,  # never reached: estimate/response clash
                seconds=0.0,
                iterations=1,
            )


class TestProjectMany:
    def test_serves_a_mixed_batch(self, surrogate):
        responses = surrogate.project_many(
            [request_for(*SERVED), request_for("CFD")]
        )
        assert [r.path for r in responses] == ["surrogate", "exact"]


class TestBatchAdapter:
    def test_adapter_drops_the_workers_argument(self, surrogate):
        # The engine call shape is ``project(request)``: requests never
        # fan out internally, so the adapter takes no workers argument.
        adapter = SurrogateBatchAdapter(surrogate)
        with pytest.raises(TypeError):
            adapter.project(request_for(*SERVED), 8)
        response = adapter.project(request_for(*SERVED))
        assert response.path == "surrogate"
        assert adapter.metrics is surrogate.metrics

    def test_adapter_mode_override(self, surrogate):
        adapter = SurrogateBatchAdapter(surrogate, mode="exact")
        response = adapter.project(request_for(*SERVED))
        assert response.path == "exact"
        assert response.provenance.reason == "requested"
