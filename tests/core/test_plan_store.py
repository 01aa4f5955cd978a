"""The content-keyed transfer-plan store under the serving tiers.

A plan depends on the program, its hints and ``batched`` — never on the
architecture, the bus or the iteration count — so the serving paths
analyze each program content once.  Every hit must equal what the
uncached :func:`~repro.core.projector.plan_transfers` returns.
"""

import sys
import threading

import pytest

import repro.core.projector as projector
from repro.core.projector import PLAN_STORE, PlanStore, plan_transfers
from repro.datausage.hints import AnalysisHints
from repro.gpu.registry import arch_ids, get_arch
from repro.obs.trace import Tracer, tracing
from repro.pcie.presets import bus_for_generation
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.skeleton import KernelBuilder, ProgramBuilder
from repro.skeleton.program import ProgramSkeleton
from repro.skeleton.validate import SkeletonError
from repro.sweep import SweepEngine
from repro.workloads.registry import get_workload


@pytest.fixture()
def analyzer_runs(monkeypatch) -> list:
    """Every data usage analysis the store (or the oracle) runs."""
    runs = []
    analyze = projector.analyze_transfers

    def counted(program, hints=None):
        runs.append(program.name)
        return analyze(program, hints)

    monkeypatch.setattr(projector, "analyze_transfers", counted)
    return runs


def tiny_program(name="p", n=64, arrays=("a", "b")):
    pb = ProgramBuilder(name)
    for array in arrays:
        pb.array(array, (n,))
    kb = KernelBuilder("k").parallel_loop("i", n)
    kb.load("a", "i").store("b", "i").statement(flops=1)
    return pb.kernel(kb).build()


def registry_pair():
    workload = get_workload("SRAD")
    dataset = workload.datasets()[0]
    return workload.skeleton(dataset), workload.hints(dataset)


def test_every_arch_bus_and_batching_variant_plans_twice(analyzer_runs):
    program, hints = registry_pair()
    PLAN_STORE.clear()
    engine = ProjectionEngine()
    variants = [
        ProjectionRequest(
            program,
            hints,
            arch=get_arch(arch_id),
            bus=bus_for_generation(generation),
            batched_transfers=batched,
        )
        for arch_id in arch_ids()
        for generation in (1, 2, 3)
        for batched in (False, True)
    ]
    assert len(variants) == 42
    before = PLAN_STORE.stats()
    served = [engine.project(request) for request in variants]
    assert analyzer_runs == [program.name, program.name]
    for request, response in zip(variants, served):
        assert response.projection.plan == plan_transfers(
            program, hints, request.batched_transfers
        )
    del analyzer_runs[:]

    # The sweep engine reads the same store: a fleet sweep of the same
    # program plans nothing.
    sweeper = SweepEngine(get_arch("quadro_fx_5600"), bus_for_generation(1))
    sweeper.sweep_arches(program, arch_ids(), hints=hints, buses="paired")
    assert analyzer_runs == []
    stats = PLAN_STORE.stats()
    assert stats["entries"] == 2
    assert stats["misses"] - before["misses"] == 2
    assert stats["hits"] - before["hits"] == 41


def test_none_and_empty_hints_share_an_entry(analyzer_runs):
    store = PlanStore()
    program = tiny_program()
    first = store.plan(program, None, False)
    second = store.plan(program, AnalysisHints.none(), False)
    assert first is second
    assert len(analyzer_runs) == 1
    assert store.stats()["entries"] == 1
    assert store.stats()["hits"] == 1


def test_batched_and_unbatched_are_separate_entries():
    store = PlanStore()
    program = tiny_program()
    assert store.plan(program, None, True) == plan_transfers(
        program, None, True
    )
    assert store.plan(program, None, False) == plan_transfers(
        program, None, False
    )
    assert store.stats()["entries"] == 2


def test_declaration_order_keeps_its_own_plan():
    # The analyzer lists transfers in declaration order, so the
    # fingerprint keeps it and the store must not share the entry.
    store = PlanStore()
    forward = tiny_program(arrays=("a", "b"))
    backward = tiny_program(arrays=("b", "a"))
    assert forward.fingerprint() != backward.fingerprint()
    for program in (forward, backward):
        for batched in (False, True):
            assert store.plan(program, None, batched) == plan_transfers(
                program, None, batched
            )
    assert store.stats()["entries"] == 4


def test_concurrent_same_key_calls_return_equal_plans():
    store = PlanStore()
    program, hints = registry_pair()
    expected = plan_transfers(program, hints, False)
    workers = 16
    calls = 25
    barrier = threading.Barrier(workers, timeout=30)
    results: list = []
    failures: list = []

    def worker() -> None:
        try:
            barrier.wait()
            mine = [store.plan(program, hints, False) for _ in range(calls)]
            results.extend(mine)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(results) == workers * calls
    assert all(plan == expected for plan in results)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["hits"] + stats["misses"] == workers * calls


def test_invalid_skeleton_is_never_stored(analyzer_runs):
    store = PlanStore()
    valid = tiny_program()
    # The kernel stores ``b``, which this program no longer declares.
    program = ProgramSkeleton("bad", valid.arrays[:1], valid.kernels)
    for _ in range(2):
        with pytest.raises(SkeletonError):
            store.plan(program, None, False)
    assert len(analyzer_runs) == 2
    assert store.stats()["entries"] == 0


def test_planning_span_says_whether_the_plan_was_cached():
    store = PlanStore()
    program = tiny_program()
    tracer = Tracer()
    with tracing(tracer):
        store.plan(program, None, False)
        store.plan(program, None, False)
        plan_transfers(program, None, False)
    planning = [s for s in tracer.spans() if s.name == "transfer-planning"]
    assert [s.attrs["cached"] for s in planning] == [False, True, False]
    assert {s.attrs["transfers"] for s in planning} == {2}
