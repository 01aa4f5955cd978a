"""Cache-key stability: semantically equal inputs must hash equally,
and every model-relevant change must change the key."""

import dataclasses
import math

import pytest

from repro.datausage.hints import AnalysisHints, SparseExtentHint
from repro.gpu.arch import gtx_280, quadro_fx_5600
from repro.pcie.model import BusModel, LinearTransferModel
from repro.pcie.presets import pcie_gen1_bus
from repro.core.projector import GrophecyPlusPlus
from repro.core.serialize import summarize_projection
from repro.datausage.transfers import Direction
from repro.service.cache import ProjectionCache
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.transform.space import TransformationSpace
from repro.util.fingerprint import canonical_json, stable_digest


def small_program(
    n=256,
    *,
    flops=3,
    array_order=("a", "b", "c"),
    loads_first=True,
    statement_order=("mul", "add"),
):
    """One program, many construction orders — all semantically equal
    unless a keyword changes the actual content."""
    pb = ProgramBuilder("p")
    for name in array_order:
        pb.array(name, (n,))
    kb = KernelBuilder("k").parallel_loop("i", n)
    for tag in statement_order:
        if tag == "mul":
            if loads_first:
                kb.load("a", "i").load("b", "i")
            else:
                kb.load("b", "i").load("a", "i")
            kb.store("c", "i").statement(flops=flops)
        else:
            kb.load("c", "i").store("c", "i").statement(flops=1)
    return pb.kernel(kb).build()


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_compact_and_sorted(self):
        assert canonical_json({"b": [1, 2], "a": "x"}) == '{"a":"x","b":[1,2]}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_digest_is_hex_sha256(self):
        digest = stable_digest({"x": 1})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")
        assert digest == stable_digest({"x": 1})


class TestProgramFingerprint:
    def test_deterministic(self):
        assert small_program().fingerprint() == small_program().fingerprint()

    def test_array_declaration_order_changes_key(self):
        # The analyzer lists transfers in declaration order.
        reordered = small_program(array_order=("c", "a", "b"))
        assert small_program().fingerprint() != reordered.fingerprint()

    def test_access_order_within_statement_changes_key(self):
        # Kernel analysis sums per-access floats in access order.
        reordered = small_program(loads_first=False)
        assert small_program().fingerprint() != reordered.fingerprint()

    def test_statement_order_changes_key(self):
        # ``add`` reads ``c``: after ``mul`` has stored it on the device
        # nothing crosses the bus, before it ``c`` must be copied in.
        reordered = small_program(statement_order=("add", "mul"))
        assert small_program().fingerprint() != reordered.fingerprint()

    def test_kernel_fingerprint_keeps_statement_order(self):
        # Kernel exploration sums per-statement floats in program order.
        reordered = small_program(statement_order=("add", "mul"))
        assert (
            small_program().kernel_fingerprints()
            != reordered.kernel_fingerprints()
        )

    def test_kernel_fingerprint_ignores_array_declaration_order(self):
        # It names only the arrays a kernel touches, sorted, so the
        # kernel cache shares entries across declaration orders.
        reordered = small_program(array_order=("c", "a", "b"))
        assert (
            small_program().kernel_fingerprints()
            == reordered.kernel_fingerprints()
        )

    def test_array_shape_changes_key(self):
        assert small_program(256).fingerprint() != small_program(
            512
        ).fingerprint()

    def test_flops_change_key(self):
        assert small_program(flops=3).fingerprint() != small_program(
            flops=4
        ).fingerprint()

    def test_statement_label_is_excluded(self):
        def build(label):
            pb = ProgramBuilder("p").array("a", (64,))
            kb = KernelBuilder("k").parallel_loop("i", 64)
            kb.load("a", "i").statement(flops=1, label=label)
            return pb.kernel(kb).build()

        assert build("foo").fingerprint() == build("bar").fingerprint()


class TestModelFingerprints:
    def test_arch_parameters_change_key(self):
        base = quadro_fx_5600()
        assert base.fingerprint() == quadro_fx_5600().fingerprint()
        assert base.fingerprint() != gtx_280().fingerprint()
        faster = dataclasses.replace(base, clock_ghz=base.clock_ghz * 2)
        assert base.fingerprint() != faster.fingerprint()

    def test_bus_alpha_beta_change_key(self):
        bus = BusModel(
            h2d=LinearTransferModel(alpha=1e-5, beta=1e-9),
            d2h=LinearTransferModel(alpha=1e-5, beta=1e-9),
        )
        other_alpha = BusModel(
            h2d=LinearTransferModel(alpha=2e-5, beta=1e-9), d2h=bus.d2h
        )
        other_beta = BusModel(
            h2d=bus.h2d, d2h=LinearTransferModel(alpha=1e-5, beta=2e-9)
        )
        assert bus.fingerprint() != other_alpha.fingerprint()
        assert bus.fingerprint() != other_beta.fingerprint()
        assert bus.fingerprint() == BusModel(bus.h2d, bus.d2h).fingerprint()

    def test_space_fingerprint(self):
        default = TransformationSpace.default()
        assert default.fingerprint() == TransformationSpace.default().fingerprint()
        assert default.fingerprint() != TransformationSpace.naive().fingerprint()

    def test_hints_fingerprint_order_independent(self):
        a = AnalysisHints(
            extra_temporaries=frozenset({"t1", "t2"}),
            sparse_extents=(
                SparseExtentHint("x", 10),
                SparseExtentHint("y", 20),
            ),
        )
        b = AnalysisHints(
            extra_temporaries=frozenset({"t2", "t1"}),
            sparse_extents=(
                SparseExtentHint("y", 20),
                SparseExtentHint("x", 10),
            ),
        )
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != AnalysisHints.none().fingerprint()


class TestEngineKey:
    def test_iterations_and_cpu_time_do_not_change_key(self):
        engine = ProjectionEngine()
        program = small_program()
        one = ProjectionRequest(program, iterations=1)
        many = ProjectionRequest(
            program, iterations=500, cpu_seconds=1.0, request_id="other"
        )
        assert engine.fingerprint(one) == engine.fingerprint(many)

    def test_every_model_input_changes_key(self):
        engine = ProjectionEngine()
        program = small_program()
        base = engine.fingerprint(ProjectionRequest(program))
        variants = [
            ProjectionRequest(small_program(512)),
            ProjectionRequest(program, arch=gtx_280()),
            ProjectionRequest(
                program,
                bus=BusModel(
                    h2d=LinearTransferModel(alpha=1e-4, beta=1e-8),
                    d2h=LinearTransferModel(alpha=1e-4, beta=1e-8),
                ),
            ),
            ProjectionRequest(program, space=TransformationSpace.naive()),
            ProjectionRequest(program, batched_transfers=True),
            ProjectionRequest(
                program,
                hints=AnalysisHints(
                    extra_temporaries=frozenset({"c"}), sparse_extents=()
                ),
            ),
        ]
        keys = [engine.fingerprint(v) for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_explicit_defaults_match_engine_defaults(self):
        engine = ProjectionEngine()
        program = small_program()
        implicit = engine.fingerprint(ProjectionRequest(program))
        explicit = engine.fingerprint(
            ProjectionRequest(
                program,
                arch=quadro_fx_5600(),
                bus=pcie_gen1_bus(),
                space=TransformationSpace.default(),
            )
        )
        assert implicit == explicit


def produce_then_consume(store_first: bool):
    """Kernel ``k``: ``store x[i]`` and ``load x[i]; store y[i]``.

    Stored first, ``x`` is produced on the device before it is read and
    never crosses host-to-device; read first, it must be copied in.
    """
    pb = ProgramBuilder("p").array("x", (1024,)).array("y", (1024,))
    kb = KernelBuilder("k").parallel_loop("i", 1024)
    statements = [
        lambda: kb.store("x", "i").statement(flops=1),
        lambda: kb.load("x", "i").store("y", "i").statement(flops=1),
    ]
    for add in statements if store_first else reversed(statements):
        add()
    return pb.kernel(kb).build()


class TestStatementOrderReproducer:
    def test_the_two_orders_need_different_transfers(self):
        bus = pcie_gen1_bus()
        projector = GrophecyPlusPlus(quadro_fx_5600(), bus)
        inputs = [
            {
                t.array
                for t in projector.project(
                    produce_then_consume(store_first)
                ).plan.by_direction(Direction.H2D)
            }
            for store_first in (True, False)
        ]
        assert inputs == [set(), {"x"}]

    def test_cached_engine_never_serves_the_other_order(self):
        bus = pcie_gen1_bus()
        engine = ProjectionEngine(
            arch=quadro_fx_5600(), bus=bus, cache=ProjectionCache()
        )
        projector = GrophecyPlusPlus(quadro_fx_5600(), bus)
        first = engine.project(ProjectionRequest(produce_then_consume(True)))
        second = engine.project(
            ProjectionRequest(produce_then_consume(False))
        )
        assert first.fingerprint != second.fingerprint
        assert not second.cached
        expected = projector.project(produce_then_consume(False))
        assert second.projection == expected
        assert second.summary.transfer_seconds == expected.transfer_seconds
        assert first.summary.transfer_seconds < expected.transfer_seconds


def declared(order):
    """Arrays declared in ``order`` around kernel ``load a, load c,
    store b``: the analyzer lists the inputs ``a`` and ``c`` in
    declaration order."""
    pb = ProgramBuilder("p")
    for name in order:
        pb.array(name, (1024,))
    kb = KernelBuilder("k").parallel_loop("i", 1024)
    kb.load("a", "i").load("c", "i").store("b", "i").statement(flops=1)
    return pb.kernel(kb).build()


class TestDeclarationOrderReproducer:
    @pytest.mark.parametrize("batched", [False, True])
    def test_cached_engine_never_serves_the_other_declaration_order(
        self, batched
    ):
        bus = pcie_gen1_bus()
        engine = ProjectionEngine(
            arch=quadro_fx_5600(), bus=bus, cache=ProjectionCache()
        )
        oracle = GrophecyPlusPlus(
            quadro_fx_5600(), bus, batched_transfers=batched
        )
        first = engine.project(
            ProjectionRequest(
                declared(("a", "b", "c")), batched_transfers=batched
            )
        )
        second = engine.project(
            ProjectionRequest(
                declared(("c", "b", "a")), batched_transfers=batched
            )
        )
        assert not second.cached
        assert second.fingerprint != first.fingerprint
        assert second.summary == summarize_projection(
            oracle.project(declared(("c", "b", "a")))
        )
