"""The benchmark's own checks: the oracle trips on a corrupted answer,
inputs are a function of the seed, and the span ledger adds up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

from common import HERE, ROOT, use_source_tree

use_source_tree()

import inputs  # noqa: E402
from oracle import Answer, Oracle, SweepSample, check_sweep  # noqa: E402
from spans import (  # noqa: E402
    ENGINE_TARGETS,
    Span,
    SpanRecorder,
    SpanSet,
    install,
)

from repro.gpu.registry import get_arch, get_spec  # noqa: E402
from repro.pcie.model import BusModel  # noqa: E402
from repro.service import jobs  # noqa: E402
from repro.service.engine import ProjectionEngine  # noqa: E402
from repro.sweep import SweepEngine  # noqa: E402


def _served(record):
    engine = ProjectionEngine()
    request = jobs.parse_request(record, 0, HERE)
    response = engine.project(request)
    return engine, request, response


def test_oracle_accepts_exact_answers_and_trips_on_corruption():
    record = {
        "workload": "VectorAdd",
        "dataset": "4M",
        "pcie_gen": 2,
        "iterations": 7,
    }
    engine, _request, response = _served(record)
    oracle = Oracle(engine.arch, engine.bus)
    good = response.summary.to_dict()

    def verdict(summary, path="exact", total=response.total_seconds):
        return oracle.check(
            [Answer(record, path, summary=summary, total_seconds=total)]
        )

    assert verdict(good).mismatches == 0
    assert verdict(good).agreeing == 1

    slower = copy.deepcopy(good)
    kernel = slower["kernels"][0]
    kernel["seconds"] = math.nextafter(kernel["seconds"], math.inf)
    assert verdict(slower).mismatches == 1

    remapped = copy.deepcopy(good)
    remapped["kernels"][0]["best_mapping"] = "b999"
    assert verdict(remapped).mismatches == 1

    # The end-to-end time must scale with the record's own iterations.
    assert verdict(
        good, total=math.nextafter(response.total_seconds, 0.0)
    ).mismatches
    assert verdict(good, total=response.summary.total_seconds(1)).mismatches
    assert verdict(good, total=response.summary.total_seconds(8)).mismatches

    # An exact body must not claim to be a surrogate answer.
    assert verdict(good, path="surrogate").mismatches == 1


def test_oracle_does_not_trust_the_programs_cache_keys():
    # Two records that differ only in the bus, both served one summary
    # (as a fingerprint that dropped the bus would serve them): the
    # oracle builds its own reference per record and trips on one.
    first = {"workload": "VectorAdd", "dataset": "4M", "pcie_gen": 1}
    second = {"workload": "VectorAdd", "dataset": "4M", "pcie_gen": 3}
    engine, _request, response = _served(first)
    oracle = Oracle(engine.arch, engine.bus)
    served = response.summary.to_dict()
    verdict = oracle.check(
        [
            Answer(record, "exact", summary=served, total_seconds=total)
            for record, total in (
                (first, response.total_seconds),
                (second, response.total_seconds),
            )
        ]
    )
    assert (verdict.agreeing, verdict.mismatches) == (1, 1)


def test_surrogate_answers_count_as_agreement_not_failure():
    record = {"workload": "HotSpot", "dataset": "64 x 64"}
    engine, _request, _response = _served(record)
    oracle = Oracle(engine.arch, engine.bus)
    right = oracle.mappings(record)
    wrong = {name: "b999" for name in right}
    verdict = oracle.check(
        [
            Answer(record, "surrogate", mappings=right),
            Answer(record, "surrogate", mappings=wrong),
        ]
    )
    assert (verdict.answers, verdict.agreeing, verdict.mismatches) == (2, 1, 0)
    unlabelled = oracle.check([Answer(record, "exact", mappings=right)])
    assert unlabelled.mismatches == 1


def test_sweep_oracle_trips_on_a_corrupted_point():
    sizes = [64, 128, 256, 512]
    programs, hints = inputs.sweep_programs("HotSpot", sizes)
    arch = get_arch("tesla_c1060")
    rows = SweepEngine(arch, get_spec("tesla_c1060").bus()).sweep_arch_grid(
        programs, ["tesla_c1060"], hints=hints, sizes=sizes, buses="paired"
    )
    row = rows[0]
    samples = [
        SweepSample(
            programs[i], hints[i], row.arch, row.bus, row.projections[i]
        )
        for i in range(len(sizes))
    ]
    assert check_sweep(samples, 4, seed=1).mismatches == 0
    point = samples[2].projection
    samples[2].projection = dataclasses.replace(
        point,
        transfer_seconds=math.nextafter(point.transfer_seconds, math.inf),
    )
    verdict = check_sweep(samples, 4, seed=1)
    assert verdict.mismatches == 1 and verdict.agreeing == 3


def test_inputs_are_a_function_of_the_seed():
    spec = json.loads((HERE / "spec.json").read_text())["workloads"]

    def first(seed, count=200):
        stream = inputs.engine_requests(seed, spec["engine-mix"]["mix"])
        return [next(stream) for _ in range(count)]

    assert first(3) == first(3)
    assert first(3) != first(4)
    mix = spec["daemon-jobs"]["mix"]
    population = inputs.daemon_population(3, mix)
    assert population == inputs.daemon_population(3, mix)
    pairs = len(inputs._registry_pairs(exclude=("PathFinder",)))
    assert len(population) == pairs * mix["per_dataset"] + mix["skeletons"]
    sweep = spec["sweep-fleet"]["mix"]
    assert inputs.sweep_axes(3, sweep) == inputs.sweep_axes(3, sweep)


def test_generated_skeletons_parse():
    from repro.skeleton.parser import parse_skeleton

    assert parse_skeleton(inputs.jacobi_skeleton(300)).kernels
    assert parse_skeleton(inputs.spmv_skeleton(1000, 8)).kernels


def _span(name, start, end, parent=None, thread=1):
    span = Span(name, parent, None, thread)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_children_and_coverage_counts_roots():
    root = _span("a", 0.0, 1.0)
    child = _span("b", 0.1, 0.4, parent=root)
    grandchild = _span("c", 0.2, 0.3, parent=child)
    other = _span("a", 1.5, 2.0)
    ledger = SpanSet([root, child, grandchild, other]).self_times()
    assert ledger["a"][0] == 2
    assert math.isclose(ledger["a"][2], 0.7 + 0.5)
    assert math.isclose(ledger["b"][2], 0.2)
    assert math.isclose(ledger["c"][2], 0.1)
    coverage = SpanSet([root, child, other]).coverage([1], wall=2.0)
    assert math.isclose(coverage, 75.0)


def test_install_records_spans_and_restores_originals():
    original = BusModel.__dict__["predict_plan_by_transfer"]
    recorder = SpanRecorder()
    target = [
        t for t in ENGINE_TARGETS if t[2] == "pcie.price"
    ] + [("repro.service.engine", "no_such_function", "x", None)]
    installation = install(recorder, target)
    try:
        assert installation.missing == [
            "repro.service.engine:no_such_function"
        ]
        recorder.active = True
        _served({"workload": "VectorAdd", "dataset": "4M"})
        recorder.active = False
    finally:
        installation.remove()
    assert BusModel.__dict__["predict_plan_by_transfer"] is original
    assert [s.name for s in recorder.spans] == ["pcie.price"]


def test_spec_and_benchmark_json_name_the_same_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == set(spec["layers"])
    assert [w["name"] for w in declared["workloads"]] == list(
        spec["workloads"]
    )
    moved = {
        metric
        for layer in spec["layers"].values()
        for metrics in layer.values()
        for metric in metrics
    }
    assert moved <= {m["name"] for m in declared["end_to_end"]}
