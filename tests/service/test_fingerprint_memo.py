"""Memoized cache-key inputs: architectures, buses, spaces, hints.

Every type the engine hashes stores its digest on the object the first
time ``fingerprint()`` runs.  These properties pin the three ways a memo
could go wrong: a stored digest that differs from a fresh hash, a
``dataclasses.replace``-d copy that inherits its parent's digest, and a
stored digest that leaks into the fields (and so into the next hash).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datausage.hints import AnalysisHints, SparseExtentHint
from repro.gpu.registry import arch_ids, get_arch, get_spec
from repro.pcie.model import BusModel, LinearTransferModel
from repro.pcie.presets import bus_for_generation
from repro.transform.space import TransformationSpace
from repro.util.fingerprint import stable_digest

ARCH_IDS = st.sampled_from(arch_ids())
#: Numeric machine parameters a what-if might perturb.
ARCH_FIELDS = st.sampled_from(
    (
        "num_sms",
        "clock_ghz",
        "max_threads_per_sm",
        "mem_bandwidth",
        "mem_latency_cycles",
        "issue_cycles",
    )
)
POSITIVE = st.floats(1e-9, 1e-3, allow_nan=False, allow_infinity=False)


def fresh(obj) -> str:
    """``obj``'s digest computed from its payload, bypassing the memo."""
    return type(obj).fingerprint.__wrapped__(obj)


class TestArchitectureMemo:
    @settings(max_examples=40, deadline=None)
    @given(ARCH_IDS)
    def test_digest_identical_before_and_after_memo(self, arch_id):
        arch = get_spec(arch_id).architecture()
        before = stable_digest(dataclasses.asdict(arch))
        assert arch.fingerprint() == before
        assert arch.fingerprint() == before
        # The stored digest is not a field: asdict (the payload) and the
        # next fresh hash do not see it.
        assert set(dataclasses.asdict(arch)) == {
            field.name for field in dataclasses.fields(arch)
        }
        assert stable_digest(dataclasses.asdict(arch)) == before
        assert fresh(arch) == before

    @settings(max_examples=60, deadline=None)
    @given(ARCH_IDS, ARCH_FIELDS, st.integers(1, 7))
    def test_replace_gives_a_fresh_digest(self, arch_id, field, bump):
        arch = get_arch(arch_id)
        before = arch.fingerprint()
        value = getattr(arch, field)
        other = dataclasses.replace(arch, **{field: value + bump})
        assert other.fingerprint() == stable_digest(
            dataclasses.asdict(other)
        )
        assert other.fingerprint() != before
        assert arch.fingerprint() == before

    @settings(max_examples=20, deadline=None)
    @given(ARCH_IDS)
    def test_memo_stays_out_of_equality_and_hash(self, arch_id):
        arch = get_spec(arch_id).architecture()
        twin = get_spec(arch_id).architecture()
        arch.fingerprint()
        assert arch == twin
        assert hash(arch) == hash(twin)
        assert repr(arch) == repr(twin)


class TestBusMemo:
    @settings(max_examples=60, deadline=None)
    @given(POSITIVE, POSITIVE, POSITIVE, POSITIVE)
    def test_memo_matches_fresh_and_replace(self, a1, b1, a2, b2):
        bus = BusModel(LinearTransferModel(a1, b1), LinearTransferModel(a2, b2))
        first = bus.fingerprint()
        assert bus.fingerprint() == first == fresh(bus)
        other = dataclasses.replace(
            bus, h2d=LinearTransferModel(a1, b1 * 2)
        )
        assert other.fingerprint() == fresh(other) != first

    def test_generation_presets_are_shared(self):
        for generation in (1, 2, 3):
            bus = bus_for_generation(generation)
            assert bus_for_generation(generation) is bus
            assert bus.fingerprint() == fresh(bus)


class TestSpaceAndHintsMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from((64, 128, 256, 512)), min_size=1,
                 max_size=4, unique=True),
        st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=3,
                 unique=True),
    )
    def test_space_memo_matches_fresh_and_replace(self, blocks, unrolls):
        space = TransformationSpace(
            block_sizes=tuple(blocks), unroll_factors=tuple(unrolls)
        )
        first = space.fingerprint()
        assert space.fingerprint() == first == fresh(space)
        other = dataclasses.replace(space, coarsening_factors=(1, 2))
        assert other.fingerprint() == fresh(other) != first

    @settings(max_examples=60, deadline=None)
    @given(
        st.frozensets(st.sampled_from("abcd")),
        st.dictionaries(st.sampled_from("abcd"), st.integers(1, 10**6)),
    )
    def test_hints_memo_matches_fresh_and_replace(self, temps, extents):
        hints = AnalysisHints(
            extra_temporaries=temps,
            sparse_extents=tuple(
                SparseExtentHint(name, count)
                for name, count in extents.items()
            ),
        )
        first = hints.fingerprint()
        assert hints.fingerprint() == first == fresh(hints)
        other = dataclasses.replace(
            hints, extra_temporaries=temps | {"z"}
        )
        assert other.fingerprint() == fresh(other) != first
