"""Shared fixtures for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper (see
DESIGN.md §4 for the experiment index).  Run with::

    pytest benchmarks/ --benchmark-only

The ``ctx`` fixture is session-scoped and pre-warmed so benchmarks measure
the experiment computation itself, not one-time calibration; benchmarks
that must include calibration construct their own context.
"""

import json
from pathlib import Path

import pytest

from repro.harness.context import ExperimentContext
from repro.transform.space import TransformationSpace
from repro.workloads.registry import all_workloads, paper_workloads

#: All machine-readable benchmark outputs live under this untracked
#: directory (gitignored as a whole); CI uploads ``BENCH_*.json`` from
#: here and :mod:`benchmarks.bench_trend` diffs them against the
#: previous run's artifact.
BENCH_DIR = Path(__file__).resolve().parent / "out"

#: Machine-readable throughput results (configs/s per scoring path);
#: written incrementally by the explorer and fused-core benchmarks.
BENCH_JSON = BENCH_DIR / "BENCH_explorer.json"

#: Surrogate serving-path numbers (µs/query, speedup vs the fused search,
#: agreement) from ``bench_surrogate_throughput.py``.
SURROGATE_JSON = BENCH_DIR / "BENCH_surrogate.json"


def _merge_json(path: Path, section: str, payload: dict) -> None:
    """Read-merge-write one section into a benchmark JSON.

    Merging keeps results from separate pytest invocations (explorer vs
    fused-core benches in the same CI job) in one file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {}
    if path.is_file():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def record_bench(section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into ``BENCH_explorer.json``."""
    _merge_json(BENCH_JSON, section, payload)


def record_surrogate_bench(section: str, payload: dict) -> None:
    """Merge one benchmark's numbers into ``BENCH_surrogate.json``."""
    _merge_json(SURROGATE_JSON, section, payload)


@pytest.fixture(scope="session")
def bench_json():
    """The :func:`record_bench` writer, injected as a fixture."""
    return record_bench


@pytest.fixture(scope="session")
def surrogate_json():
    """The :func:`record_surrogate_bench` writer, as a fixture."""
    return record_surrogate_bench


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    context = ExperimentContext(seed=2013)
    # Pre-warm every projection and measurement cache.
    for workload in paper_workloads():
        for dataset in workload.datasets():
            context.report(workload, dataset)
    return context


@pytest.fixture()
def fresh_ctx() -> ExperimentContext:
    """An uncached context, for benchmarks that time the full pipeline."""
    return ExperimentContext(seed=2013)


@pytest.fixture(scope="session")
def wide_space() -> TransformationSpace:
    """The 144-config search grid the throughput benchmarks sweep."""
    return TransformationSpace.wide()


@pytest.fixture(scope="session")
def kernel_suite():
    """(workload name, kernel, program) across every registered workload.

    Largest dataset per workload, first two kernels per program (caps
    PathFinder's 64 rows) — the workload mix of the explorer throughput
    benchmark.
    """
    suite = []
    for workload in all_workloads():
        dataset = max(workload.datasets(), key=lambda d: d.size)
        program = workload.skeleton(dataset)
        for kernel in program.kernels[:2]:
            suite.append((workload.name, kernel, program))
    return suite


@pytest.fixture(scope="session")
def largest_programs():
    """workload name -> skeleton of its largest dataset (paper set)."""
    programs = {}
    for workload in paper_workloads():
        dataset = max(workload.datasets(), key=lambda d: d.size)
        programs[workload.name] = workload.skeleton(dataset)
    return programs
