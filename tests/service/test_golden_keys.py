"""Golden cache keys: the content-addressed fingerprints are pinned.

The projection cache (memory + disk) and the daemon's result reuse both
address entries by :meth:`ProjectionEngine.fingerprint`.  Those keys
must be stable across processes, Python versions, and refactors — a
silent drift would orphan every persisted cache entry and turn warm
daemons cold after a deploy.  These tests pin the *computed* digests
for one fixed request (HotSpot, smallest dataset, default arch/bus/
space) across both explorer paths.

If a test here fails because you deliberately changed a fingerprint
input (new skeleton field, arch table recalibration, key-format bump),
update the golden values *and* bump the relevant format/version
constant so old disk caches are invalidated rather than misread.
"""

from repro.gpu import registry
from repro.gpu.arch import gtx_280, quadro_fx_5600, tesla_c1060
from repro.pcie.presets import pcie_gen1_bus
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.transform.space import TransformationSpace
from repro.workloads.registry import get_workload

#: Request keys at ``KEY_FORMAT = 3`` (re-pinned when the program
#: fingerprint started keeping array declaration and access order; of
#: the component digests below only ``program`` moved).
GOLDEN_REQUEST_KEYS = {
    # fast/reference summaries are interchangeable by design, so they
    # share one key.
    "reference": (
        "f072c3656091ed57d117e55dc6a291e23dc690bc46358f21d18d89702c229d96"
    ),
    "fast": (
        "f072c3656091ed57d117e55dc6a291e23dc690bc46358f21d18d89702c229d96"
    ),
}

GOLDEN_BATCHED_KEY = (
    "ac9269463fc11ab2bac707fbe492342aca1eea5925c01c6d3e5b929ae4ceec18"
)

GOLDEN_COMPONENTS = {
    "program": (
        "70c3a1733047c00520da357a32c88c07e67fc4ea2227e76115f03387e723af8f"
    ),
    "hints": (
        "5b776b736340d8c916ae36809d4b3e249b9c40956a1a915f0aeab010f91d5e35"
    ),
    "arch": (
        "45d2805f4ae70c45605a1259f0099cb9cecfd50c73fcb02587e4c95a7f02e928"
    ),
    "bus": (
        "e423bac8c0980c168c33256a3cc12ebf2aa3dec2190edb04596a58b161d1aa7c"
    ),
    "space_default": (
        "a22168329e6753342093e90e4f1ae8030739cd3f2e708c18f19ccdcff875ba14"
    ),
    "space_wide": (
        "5bb46e594b3f7a25cdc95bc8dfefe1500dc8ea7fec2ec51670c05f48e79d419e"
    ),
}


#: Machine-description fingerprints of the calibrated boards — computed
#: before the registry existed, against the hand-built constructors.
#: ``registry.get_arch`` must keep reproducing them byte-for-byte, or
#: every cache entry keyed under an arch would silently orphan.
GOLDEN_ARCH_FINGERPRINTS = {
    "quadro_fx_5600": (
        "45d2805f4ae70c45605a1259f0099cb9cecfd50c73fcb02587e4c95a7f02e928"
    ),
    "tesla_c1060": (
        "cee5fca948b92692189eb9e7df82487ea2c99c061f853f18d2c360c15727d9be"
    ),
    "gtx_280": (
        "22e71740192871fa796fd796edf99c1f61589c746666afd815f244c73f23f852"
    ),
}

#: Fast-explorer request keys for the fixed request with each calibrated
#: board as the per-request arch override (first captured before the
#: registry existed, re-pinned at ``KEY_FORMAT = 3``).
GOLDEN_ARCH_REQUEST_KEYS = {
    "quadro_fx_5600": (
        "f072c3656091ed57d117e55dc6a291e23dc690bc46358f21d18d89702c229d96"
    ),
    "tesla_c1060": (
        "2ae8cd1e53dd804ff9dc17572509422e02ad945fd7770df7169e0f3e239d243e"
    ),
    "gtx_280": (
        "175492ca09ed0fec5e0f2d5916f739194e5ac72eca81c4fc73def9a2aff512cb"
    ),
}

_CONSTRUCTORS = {
    "quadro_fx_5600": quadro_fx_5600,
    "tesla_c1060": tesla_c1060,
    "gtx_280": gtx_280,
}


def _fixed_request():
    workload = get_workload("HotSpot")
    dataset = min(workload.datasets(), key=lambda d: d.size)
    return (
        workload.skeleton(dataset),
        workload.hints(dataset),
    )


def _engine(explorer: str) -> ProjectionEngine:
    return ProjectionEngine(
        arch=quadro_fx_5600(),
        bus=pcie_gen1_bus(),
        space=TransformationSpace.default(),
        explorer=explorer,
    )


class TestGoldenRequestKeys:
    def test_request_keys_match_golden(self):
        program, hints = _fixed_request()
        request = ProjectionRequest(program=program, hints=hints)
        for explorer, expected in GOLDEN_REQUEST_KEYS.items():
            assert _engine(explorer).fingerprint(request) == expected, (
                f"{explorer} cache key drifted — persisted caches would "
                "go cold; bump KEY_FORMAT if the change is deliberate"
            )

    def test_fast_and_reference_share_a_key(self):
        assert GOLDEN_REQUEST_KEYS["fast"] == GOLDEN_REQUEST_KEYS["reference"]

    def test_batched_transfers_changes_the_key(self):
        program, hints = _fixed_request()
        request = ProjectionRequest(
            program=program, hints=hints, batched_transfers=True
        )
        for explorer in GOLDEN_REQUEST_KEYS:
            assert (
                _engine(explorer).fingerprint(request) == GOLDEN_BATCHED_KEY
            )
        assert GOLDEN_BATCHED_KEY != GOLDEN_REQUEST_KEYS["fast"]

    def test_keys_are_deterministic_across_engines(self):
        # A fresh engine (new caches, new explorer instance) must
        # produce byte-identical keys — that is the whole point of
        # content addressing.
        program, hints = _fixed_request()
        request = ProjectionRequest(program=program, hints=hints)
        first = _engine("fast").fingerprint(request)
        second = _engine("fast").fingerprint(request)
        assert first == second == GOLDEN_REQUEST_KEYS["fast"]


class TestGoldenComponentFingerprints:
    """The inputs that compose a request key are pinned individually, so
    a drift points straight at the layer that moved."""

    def test_program_fingerprint(self):
        program, _ = _fixed_request()
        assert program.fingerprint() == GOLDEN_COMPONENTS["program"]

    def test_hints_fingerprint(self):
        _, hints = _fixed_request()
        assert hints.fingerprint() == GOLDEN_COMPONENTS["hints"]

    def test_arch_fingerprint(self):
        assert (
            quadro_fx_5600().fingerprint() == GOLDEN_COMPONENTS["arch"]
        )

    def test_bus_fingerprint(self):
        assert pcie_gen1_bus().fingerprint() == GOLDEN_COMPONENTS["bus"]

    def test_space_fingerprints(self):
        assert (
            TransformationSpace.default().fingerprint()
            == GOLDEN_COMPONENTS["space_default"]
        )
        assert (
            TransformationSpace.wide().fingerprint()
            == GOLDEN_COMPONENTS["space_wide"]
        )


class TestGoldenRegistryArches:
    """The registry reassembles the calibrated boards byte-identically:
    same machine-description fingerprints, same request keys.  These
    values were captured against the hand-built constructors *before*
    the registry existed — a drift here means the refactor changed
    model inputs, not just code structure."""

    def test_registry_arch_fingerprints_match_golden(self):
        for arch_id, expected in GOLDEN_ARCH_FINGERPRINTS.items():
            assert registry.get_arch(arch_id).fingerprint() == expected, (
                f"{arch_id} machine description drifted through the "
                "registry"
            )

    def test_constructor_fingerprints_match_golden(self):
        for arch_id, factory in _CONSTRUCTORS.items():
            assert (
                factory().fingerprint()
                == GOLDEN_ARCH_FINGERPRINTS[arch_id]
            )

    def test_registry_request_keys_match_golden(self):
        program, hints = _fixed_request()
        for arch_id, expected in GOLDEN_ARCH_REQUEST_KEYS.items():
            engine = ProjectionEngine(
                arch=registry.get_arch(arch_id),
                bus=pcie_gen1_bus(),
                space=TransformationSpace.default(),
                explorer="fast",
            )
            request = ProjectionRequest(program=program, hints=hints)
            assert engine.fingerprint(request) == expected, (
                f"{arch_id} request key drifted — per-arch caches would "
                "go cold"
            )

    def test_nominal_generations_have_distinct_fingerprints(self):
        calibrated = set(GOLDEN_ARCH_FINGERPRINTS.values())
        for spec in registry.all_specs():
            if not spec.calibrated:
                fingerprint = registry.get_arch(spec.id).fingerprint()
                assert fingerprint not in calibrated
