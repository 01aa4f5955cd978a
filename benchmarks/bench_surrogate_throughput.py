"""Surrogate serving gates: microseconds, 100x, 90%, and bitwise exact.

Four asserted contracts, the acceptance criteria of the surrogate tier
(see docs/SURROGATE.md):

1. **latency** — warm forced-surrogate serving answers with a p50 of
   at most 100 µs/query;
2. **speedup** — the surrogate path is >= 100x faster than the fused
   explorer's search on the same query set (total wall over all
   workloads x datasets), with every kernel's analysis and column grid
   built before the timed loop;
3. **agreement** — on a held-out row split of the training grid, at
   least 90% of *accepted* queries name the exact argmin's mapping
   class;
4. **fallback** — with the accept threshold forced to +inf, every
   query falls back to the exact engine with a bitwise-identical
   summary and ``provenance.path == "exact"``.

Rates land in the ``serving`` / ``agreement`` sections of
``benchmarks/out/BENCH_surrogate.json`` for the CI trend gate.
"""

import time

import numpy as np
import pytest

from repro.gpu.arch import quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.vectorized import ScoreArena, fused_seconds
from repro.pcie.presets import pcie_gen1_bus
from repro.service.engine import ProjectionEngine, ProjectionRequest
from repro.surrogate.dataset import generate_training_set, split_rows
from repro.surrogate.engine import SurrogateEngine
from repro.surrogate.model import evaluate_model, train_surrogate
from repro.transform.analysis import analyze_kernel
from repro.transform.explorer import top_projection, top_rows
from repro.transform.space import TransformationSpace
from repro.workloads.registry import all_workloads

LATENCY_P50_GATE_US = 100.0
SPEEDUP_GATE = 100.0
AGREEMENT_GATE = 0.90

#: Per-query rounds of the warm latency loop (total = rounds x queries).
LATENCY_ROUNDS = 200


@pytest.fixture(scope="module")
def serving_stack():
    """(surrogate engine, exact engine, holdout report, query set)."""
    arch = quadro_fx_5600()
    space = TransformationSpace.default()
    training = generate_training_set(arch, space)
    holdout_idx, fit_idx = split_rows(training.rows, (0.25,), seed=7)
    model = train_surrogate(training.subset(fit_idx), arch, space)
    report = evaluate_model(model, training.subset(holdout_idx))

    engine = ProjectionEngine(arch=arch, bus=pcie_gen1_bus(), space=space)
    surrogate = SurrogateEngine(model, engine)

    requests = []
    for workload in all_workloads():
        for dataset in workload.datasets():
            requests.append(
                ProjectionRequest(
                    program=workload.skeleton(dataset),
                    hints=workload.hints(dataset),
                    request_id=f"{workload.name}/{dataset.label}",
                )
            )
    yield surrogate, engine, report, requests
    surrogate.close()


def _served_requests(surrogate, requests):
    """The queries the forced-surrogate path can actually serve."""
    served = [
        request
        for request in requests
        if surrogate.project(request, "surrogate").path == "surrogate"
    ]
    assert served, "no query is surrogate-servable - model is broken"
    return served


def test_latency_p50_under_100us(serving_stack, surrogate_json):
    """Gate 1: warm forced-surrogate p50 <= 100 µs/query."""
    surrogate, _engine, _report, requests = serving_stack
    served = _served_requests(surrogate, requests)
    # Warm every prepared-program cache entry before timing.
    for request in served:
        surrogate.project(request, "surrogate")
    samples = []
    for _ in range(LATENCY_ROUNDS):
        for request in served:
            start = time.perf_counter()
            response = surrogate.project(request, "surrogate")
            samples.append(time.perf_counter() - start)
            assert response.path == "surrogate"
    p50 = float(np.quantile(samples, 0.5)) * 1e6
    p95 = float(np.quantile(samples, 0.95)) * 1e6
    queries_per_s = len(samples) / sum(samples)
    surrogate_json(
        "serving",
        {
            "queries": len(served),
            "p50_per_query_us": p50,
            "p95_us": p95,
            "surrogate_queries_per_s": queries_per_s,
        },
    )
    print(
        f"\nsurrogate warm: p50 {p50:.1f} µs/query, p95 {p95:.1f} µs, "
        f"{queries_per_s:,.0f} queries/s over {len(served)} programs"
    )
    assert p50 <= LATENCY_P50_GATE_US, (
        f"surrogate p50 {p50:.1f} µs exceeds the "
        f"{LATENCY_P50_GATE_US:.0f} µs gate"
    )


def test_speedup_vs_warm_fused_explorer(serving_stack, surrogate_json):
    """Gate 2: >= 100x over the fused explorer's search, same queries."""
    surrogate, engine, _report, requests = serving_stack
    served = _served_requests(surrogate, requests)

    # The fused explorer's per-kernel search with its set-up hoisted:
    # analyses and column grids are built here, so the timed loop is one
    # fused pass plus the ranking head per kernel.  (Not engine.project -
    # its caches would answer from memory and we are timing the search.)
    model = GpuPerformanceModel(engine.arch)
    configs = engine.space.configs()
    arena = ScoreArena()
    grids = []
    for request in served:
        program = request.program
        for kernel in program.kernels:
            analysis = analyze_kernel(
                kernel, program.array_map, model.arch.strict_coalescing
            )
            columns, index_map, _errors = analysis.config_columns(configs)
            grids.append((kernel.name, analysis, columns, index_map.tolist()))

    def fused_pass():
        for name, analysis, columns, index_map in grids:
            seconds, explored = fused_seconds(model, columns, arena)
            (rows,), _legal = top_rows(seconds)
            top_projection(
                name,
                model,
                len(configs),
                explored,
                [configs[index_map[r]] for r in rows],
                analysis.characteristics,
            )

    fused_pass()  # warm
    fused_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fused_pass()
        fused_wall = min(fused_wall, time.perf_counter() - start)

    for request in served:
        surrogate.project(request, "surrogate")  # warm
    surrogate_wall = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for request in served:
            surrogate.project(request, "surrogate")
        surrogate_wall = min(surrogate_wall, time.perf_counter() - start)

    speedup = fused_wall / surrogate_wall
    surrogate_json(
        "speedup",
        {
            "queries": len(served),
            "fused_queries_per_s": len(served) / fused_wall,
            "surrogate_queries_per_s": len(served) / surrogate_wall,
            "surrogate_over_fused": speedup,
        },
    )
    print(
        f"\nwarm fused: {fused_wall / len(served) * 1e6:,.0f} µs/query   "
        f"surrogate: {surrogate_wall / len(served) * 1e6:.1f} µs/query   "
        f"speedup {speedup:,.0f}x"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"surrogate is only {speedup:.0f}x faster than the fused "
        f"explorer (gate: {SPEEDUP_GATE:.0f}x)"
    )


def test_heldout_accepted_agreement(serving_stack, surrogate_json):
    """Gate 3: >= 90% top-1 mapping agreement among accepted queries."""
    _surrogate, _engine, report, _requests = serving_stack
    surrogate_json(
        "agreement",
        {
            "rows": report["rows"],
            "acceptance_rate": report["acceptance_rate"],
            "accepted_top1_agreement": report["accepted_top1_agreement"],
            "top1_agreement": report["top1_agreement"],
            "log_mae": report["log_mae"],
        },
    )
    print(
        f"\nheld-out: {report['rows']} rows, "
        f"acceptance {report['acceptance_rate']:.1%}, "
        f"accepted agreement {report['accepted_top1_agreement']:.1%}"
    )
    assert report["accepted_rows"] > 0, "gate accepted nothing on holdout"
    assert report["accepted_top1_agreement"] >= AGREEMENT_GATE, (
        f"accepted agreement {report['accepted_top1_agreement']:.3f} "
        f"below the {AGREEMENT_GATE:.0%} gate"
    )


def test_fallback_is_bitwise_exact(serving_stack):
    """Gate 4: below-threshold queries return the engine's summary
    bit-for-bit, stamped ``path == "exact"``."""
    surrogate, engine, _report, requests = serving_stack
    # +inf threshold: nothing clears the gate, everything falls back.
    gated = SurrogateEngine(surrogate.model.with_threshold(float("inf")), engine)
    # A pristine twin engine answers the same requests directly.
    direct = ProjectionEngine(
        arch=engine.arch,
        bus=engine.bus,
        space=engine.space,
        explorer="reference",
    )
    for request in requests:
        served = gated.project(request)
        assert served.path == "exact"
        assert served.provenance.path == "exact"
        assert served.provenance.reason in ("low_confidence", "unservable")
        expected = direct.project(request)
        assert (
            served.response.summary.to_json()
            == expected.summary.to_json()
        ), f"fallback summary diverged for {request.request_id}"
    direct.close()
