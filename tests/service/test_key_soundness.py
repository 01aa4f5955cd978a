"""Key soundness: an equal key at any tier means an equal answer.

Every registry workload (one dataset, two architectures) is mutated in
ways that may or may not matter to the analyses: swap two array
declarations, swap two statements, reverse every statement's accesses,
reorder the kernels, rename a temporary, flip ``batched``, and pass
``None`` instead of :meth:`AnalysisHints.none`.  For each mutation and each tier it reaches
— the request key, the kernel keys and the program-plan key — either the
key changes, or the uncached answer of that tier is ``==``.  A tier key
that stayed equal over a changed answer would let a cache serve one
program another's result.
"""

import dataclasses

import pytest

from repro.core import keys
from repro.core.projector import GrophecyPlusPlus, plan_transfers
from repro.core.serialize import summarize_projection
from repro.datausage.hints import AnalysisHints
from repro.gpu.arch import quadro_fx_5600, tesla_c1060
from repro.gpu.model import GpuPerformanceModel
from repro.pcie.presets import pcie_gen1_bus
from repro.skeleton.program import ProgramSkeleton
from repro.transform.explorer import explore_kernel
from repro.transform.space import TransformationSpace
from repro.workloads.registry import all_workloads

BUS = pcie_gen1_bus()
SPACE = TransformationSpace.default()
ARCHES = (quadro_fx_5600(), tesla_c1060())
WORKLOADS = {w.name: w for w in all_workloads()}


@dataclasses.dataclass(frozen=True)
class Case:
    program: ProgramSkeleton
    hints: AnalysisHints | None
    batched: bool


def swap(items, i, j):
    items = list(items)
    items[i], items[j] = items[j], items[i]
    return tuple(items)


def swap_declarations(case):
    program = case.program
    return dataclasses.replace(
        case, program=dataclasses.replace(
            program, arrays=swap(program.arrays, 0, 1)
        )
    )


def swap_statements(case):
    program = case.program
    for index, kernel in enumerate(program.kernels):
        if len(kernel.statements) >= 2:
            kernel = dataclasses.replace(
                kernel, statements=swap(kernel.statements, 0, 1)
            )
            kernels = list(program.kernels)
            kernels[index] = kernel
            return dataclasses.replace(
                case, program=dataclasses.replace(program, kernels=kernels)
            )
    return None


def reverse_accesses(case):
    program = case.program
    kernels = tuple(
        dataclasses.replace(k, statements=tuple(
            dataclasses.replace(s, accesses=tuple(reversed(s.accesses)))
            for s in k.statements
        ))
        for k in program.kernels
    )
    return dataclasses.replace(
        case, program=dataclasses.replace(program, kernels=kernels)
    )


def reorder_kernels(case):
    program = case.program
    if len(program.kernels) < 2:
        return None
    return dataclasses.replace(
        case, program=dataclasses.replace(
            program, kernels=tuple(reversed(program.kernels))
        )
    )


def rename_temporary(case):
    """Rename one temporary array (or, without one, the first array)
    everywhere it is named."""
    program = case.program
    old = min(program.temporaries or {program.arrays[0].name})
    new = f"{old}_renamed"

    def name(value):
        return new if value == old else value

    def statement(s):
        return dataclasses.replace(s, accesses=tuple(
            dataclasses.replace(a, array=name(a.array)) for a in s.accesses
        ))

    renamed = dataclasses.replace(
        program,
        arrays=tuple(
            dataclasses.replace(a, name=name(a.name)) for a in program.arrays
        ),
        kernels=tuple(
            dataclasses.replace(
                k, statements=tuple(statement(s) for s in k.statements)
            )
            for k in program.kernels
        ),
        temporaries=frozenset(name(t) for t in program.temporaries),
    )
    return dataclasses.replace(case, program=renamed)


def flip_batched(case):
    return dataclasses.replace(case, batched=not case.batched)


def none_hints(case):
    if case.hints != AnalysisHints.none():
        return None
    return dataclasses.replace(case, hints=None)


MUTATIONS = {
    "swap_declarations": swap_declarations,
    "swap_statements": swap_statements,
    "reverse_accesses": reverse_accesses,
    "reorder_kernels": reorder_kernels,
    "rename_temporary": rename_temporary,
    "flip_batched": flip_batched,
    "none_hints": none_hints,
}


class Answers:
    """Uncached answers per tier, each computed at most once."""

    def __init__(self, arch):
        self.arch = arch
        self.model = GpuPerformanceModel(arch)
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def request(self, case):
        projector = GrophecyPlusPlus(
            self.arch, BUS, SPACE, batched_transfers=case.batched
        )
        return self._once(
            ("request", id(case.program), case.hints, case.batched),
            lambda: summarize_projection(
                projector.project(case.program, case.hints)
            ),
        )

    def plan(self, case):
        return plan_transfers(case.program, case.hints, case.batched)

    def kernel(self, program, index):
        return self._once(
            ("kernel", id(program), index),
            lambda: explore_kernel(
                program.kernels[index], program, self.model, SPACE
            ),
        )


def request_key(case, arch):
    return keys.request_key(
        case.program, case.hints, arch, BUS, SPACE, case.batched
    )


def kernel_keys(case, arch):
    return [
        keys.kernel_key(digest, arch, SPACE)
        for digest in case.program.kernel_fingerprints()
    ]


def base_case(workload):
    spec = WORKLOADS[workload]
    dataset = spec.datasets()[0]
    return Case(spec.skeleton(dataset), spec.hints(dataset), False)


def changes(workload, mutation):
    mutant = MUTATIONS[mutation](base_case(workload))
    return mutant is not None and mutant != base_case(workload)


#: Every (workload, mutation) pair where the mutation changes something.
PAIRS = [
    (workload, mutation)
    for workload in sorted(WORKLOADS)
    for mutation in sorted(MUTATIONS)
    if changes(workload, mutation)
]


@pytest.mark.parametrize("workload,mutation", PAIRS)
def test_equal_keys_mean_equal_answers(workload, mutation):
    base = base_case(workload)
    mutant = MUTATIONS[mutation](base)
    for arch in ARCHES:
        answers = Answers(arch)
        if request_key(mutant, arch) == request_key(base, arch):
            assert answers.request(mutant) == answers.request(base), arch
        if keys.plan_key(
            mutant.program, mutant.hints, mutant.batched
        ) == keys.plan_key(base.program, base.hints, base.batched):
            assert answers.plan(mutant) == answers.plan(base)
        originals = {
            key: index for index, key in enumerate(kernel_keys(base, arch))
        }
        for index, key in enumerate(kernel_keys(mutant, arch)):
            if key in originals:
                assert answers.kernel(mutant.program, index) == (
                    answers.kernel(base.program, originals[key])
                ), (arch.name, mutant.program.kernels[index].name)


def test_none_and_empty_hints_key_alike_at_every_tier():
    spec = WORKLOADS["HotSpot"]
    program = spec.skeleton(spec.datasets()[0])
    arch = ARCHES[0]
    for batched in (False, True):
        assert request_key(Case(program, None, batched), arch) == (
            request_key(Case(program, AnalysisHints.none(), batched), arch)
        )
        assert keys.plan_key(program, None, batched) == keys.plan_key(
            program, AnalysisHints.none(), batched
        )
