"""Memoized skeleton fingerprints: computed once, never stale.

``ProgramSkeleton.fingerprint`` and ``kernel_fingerprints`` store their
result on the (frozen, deeply immutable) object the first time they run.
Hypothesis builds random valid skeletons; for each one the stored digest
must equal a fresh hash of the payload, and a ``dataclasses.replace``-d
copy must hash its own content, never the original's.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skeleton import (
    AccessKind,
    AffineIndex,
    ArrayAccess,
    ArrayDecl,
    KernelSkeleton,
    Loop,
    ProgramSkeleton,
    Statement,
)
from repro.skeleton.program import kernel_fingerprint

ARRAY_NAMES = ("a", "b", "c")
N = 32


@st.composite
def programs(draw) -> ProgramSkeleton:
    shapes = {name: draw(st.integers(N, 4 * N)) for name in ARRAY_NAMES}
    arrays = tuple(ArrayDecl(name, (shapes[name],)) for name in ARRAY_NAMES)
    kernels = []
    for ki in range(draw(st.integers(1, 3))):
        lower = draw(st.integers(0, 2))
        upper = draw(st.integers(lower + 4, N - 2))
        statements = []
        for _ in range(draw(st.integers(1, 3))):
            accesses = tuple(
                ArrayAccess(
                    draw(st.sampled_from(ARRAY_NAMES)),
                    (AffineIndex.var("i", 1, draw(st.integers(-lower, 2))),),
                    draw(st.sampled_from([AccessKind.LOAD, AccessKind.STORE])),
                )
                for _ in range(draw(st.integers(1, 3)))
            )
            statements.append(
                Statement(accesses, flops=float(draw(st.integers(1, 8))))
            )
        kernels.append(
            KernelSkeleton(
                f"k{ki}",
                (Loop("i", lower, upper, parallel=True),),
                tuple(statements),
            )
        )
    temporaries = draw(st.frozensets(st.sampled_from(ARRAY_NAMES)))
    return ProgramSkeleton("random", arrays, tuple(kernels), temporaries)


def fresh_fingerprint(program: ProgramSkeleton) -> str:
    """The digest computed from the payload, bypassing the memo."""
    return ProgramSkeleton.fingerprint.__wrapped__(program)


class TestProgramFingerprintMemo:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_second_call_equals_fresh_digest(self, program):
        first = program.fingerprint()
        assert program.fingerprint() == first == fresh_fingerprint(program)

    @settings(max_examples=60, deadline=None)
    @given(programs(), st.integers(1, 3))
    def test_replace_never_serves_a_stale_digest(self, program, change):
        before = program.fingerprint()
        if change == 1:
            other = dataclasses.replace(program, name="renamed")
        elif change == 2:
            other = dataclasses.replace(program, kernels=program.kernels[:1])
            if other == program:
                other = dataclasses.replace(program, name="renamed")
        else:
            wider = tuple(
                dataclasses.replace(a, shape=(a.shape[0] + 1,))
                for a in program.arrays
            )
            other = dataclasses.replace(program, arrays=wider)
        assert other.fingerprint() == fresh_fingerprint(other)
        assert other.fingerprint() != before
        assert program.fingerprint() == before

    @settings(max_examples=30, deadline=None)
    @given(programs())
    def test_memo_stays_out_of_equality_and_fields(self, program):
        untouched = dataclasses.replace(program)
        program.fingerprint()
        program.kernel_fingerprints()
        assert program == untouched
        assert repr(program) == repr(untouched)

    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_kernel_fingerprints_match_per_kernel_digests(self, program):
        digests = program.kernel_fingerprints()
        assert program.kernel_fingerprints() is digests
        array_map = program.array_map
        assert digests == tuple(
            kernel_fingerprint(kernel, array_map)
            for kernel in program.kernels
        )
