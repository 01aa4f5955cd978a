"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed and ``spec.json``: the
same seed gives the same daemon job payloads, engine request records,
and sweep size axes.  The program only ever sees the generated records.

The inline skeletons are templates of ``examples/skeletons/`` (a 2-D
Jacobi sweep and a CSR SpMV) with the extents left open, so a seed
picks their sizes.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator

from repro.gpu.registry import arch_ids
from repro.workloads.base import Dataset
from repro.workloads.registry import all_workloads, get_workload

JACOBI = """program jacobi2d
array u[{n}][{n}] f32
array unew[{n}][{n}] f32

kernel sweep
  parfor i in 1..{m}
  parfor j in 1..{m}
  stmt flops=5
    load u[i-1][j]
    load u[i+1][j]
    load u[i][j-1]
    load u[i][j+1]
    store unew[i][j]
"""

SPMV = """program spmv
array vals[{nnz}] f32 sparse
array cols[{nnz}] i32 sparse
array rowptr[{rows_1}] i32
array x[{rows}] f32
array y[{rows}] f32

kernel multiply
  parfor r in 0..{rows}
  for k in 0..{per_row}
  stmt flops=0 amortize=r
    load rowptr[r]
    load rowptr[r+1]
  stmt flops=2
    load vals[k]
    load cols[k]
    gather x[r] dims=0
  stmt flops=0 amortize=r
    store y[r]
"""


def jacobi_skeleton(n: int) -> str:
    return JACOBI.format(n=n, m=n - 1)


def spmv_skeleton(rows: int, per_row: int) -> str:
    return SPMV.format(
        nnz=rows * per_row, rows=rows, rows_1=rows + 1, per_row=per_row
    )


def random_skeleton(rng: random.Random, kind: str) -> tuple[tuple, str]:
    """One ``jacobi`` or ``spmv`` skeleton with seeded extents, plus
    its identity."""
    if kind == "jacobi":
        n = rng.randrange(256, 4097)
        return ("jacobi", n), jacobi_skeleton(n)
    rows = rng.randrange(10_000, 400_001)
    per_row = rng.randrange(4, 65)
    return ("spmv", rows, per_row), spmv_skeleton(rows, per_row)


def _registry_pairs(exclude: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    return [
        (workload.name, dataset.label)
        for workload in all_workloads()
        if workload.name not in exclude
        for dataset in workload.datasets()
    ]


def _targeting(rng: random.Random, record: dict[str, Any]) -> dict[str, Any]:
    """Add a seeded arch and PCIe generation (or the server defaults)."""
    arch = rng.choice((None, *arch_ids()))
    if arch is not None:
        record["arch"] = arch
    gen = rng.choice((None, 1, 2, 3))
    if gen is not None:
        record["pcie_gen"] = gen
    return record


# daemon-jobs ---------------------------------------------------------------
def daemon_population(seed: int, spec: dict[str, Any]) -> list[dict[str, Any]]:
    """The distinct job sources: registry records plus inline skeletons.

    Every registry (workload, dataset) pair appears ``per_dataset``
    times with a seeded arch and PCIe generation, so the seed changes
    the targets but not how much each workload weighs.  PathFinder is
    excluded (its 64 kernels would make a handful of jobs dominate the
    run).  The population is small, so once each entry has been served
    once nearly every exact answer is a cache hit.
    """
    rng = random.Random(f"daemon-jobs/{seed}")
    entries: list[dict[str, Any]] = []
    seen: set[str] = set()
    for workload, dataset in _registry_pairs(exclude=("PathFinder",)):
        added = 0
        while added < spec["per_dataset"]:
            record = _targeting(
                rng, {"workload": workload, "dataset": dataset}
            )
            key = repr(sorted(record.items()))
            if key not in seen:
                seen.add(key)
                entries.append(record)
                added += 1
    for kind in ("jacobi", "spmv") * (spec["skeletons"] // 2):
        identity, text = random_skeleton(rng, kind)
        while identity in seen:
            identity, text = random_skeleton(rng, kind)
        seen.add(identity)
        entries.append(_targeting(rng, {"skeleton": text}))
    return entries


def daemon_jobs(
    population: list[dict[str, Any]],
    seed: int,
    client: int,
    auto_share: float,
) -> Iterator[dict[str, Any]]:
    """One client's endless job stream over the population."""
    rng = random.Random(f"daemon-jobs/{seed}/client{client}")
    while True:
        payload = dict(rng.choice(population))
        payload["iterations"] = rng.randint(1, 100)
        payload["mode"] = "auto" if rng.random() < auto_share else "exact"
        yield payload


# engine-mix ----------------------------------------------------------------
def engine_requests(
    seed: int, spec: dict[str, Any]
) -> Iterator[tuple[dict[str, Any], bool]]:
    """Endless ``(record, via_surrogate)`` stream for ``engine-mix``.

    Requests come in shuffled blocks of fixed composition, so every
    seed weighs each workload the same:

    - ``per_dataset`` requests for each registry (workload, dataset)
      pair (PathFinder excluded), each pair Zipf-ranked over a seeded
      order of the 7 architectures x PCIe gen 1-3 x batched transfers;
    - ``pathfinder`` PathFinder requests (64 kernels apiece; its two
      datasets over the architectures overflow the kernel cache);
    - ``skeletons`` unique inline skeletons, which always miss.

    A seeded share of the registry requests is routed through the
    surrogate front-end in ``auto`` mode.
    """
    rng = random.Random(f"engine-mix/{seed}")
    # Registry requests always name their arch and bus: a request left
    # on the engine defaults skips two constructions and fingerprints,
    # so a seed that ranked defaults first would run measurably faster.
    targets = [
        {"arch": arch, "pcie_gen": gen, "batched_transfers": batched}
        for arch, gen, batched in itertools.product(
            arch_ids(), (1, 2, 3), (False, True)
        )
    ]
    weights = list(
        itertools.accumulate(
            1.0 / (rank + 1) ** spec["zipf_exponent"]
            for rank in range(len(targets))
        )
    )
    ranked = {}
    for pair in _registry_pairs(exclude=("PathFinder",)):
        order = list(targets)
        rng.shuffle(order)
        ranked[pair] = order
    pathfinder = [
        {"workload": "PathFinder", "dataset": dataset.label}
        for dataset in get_workload("PathFinder").datasets()
    ]
    block = (
        [("registry", pair) for pair in ranked] * spec["per_dataset"]
        + [("pathfinder", None)] * spec["pathfinder"]
        + [("skeleton", kind) for kind in ("jacobi", "spmv")]
        * (spec["skeletons"] // 2)
    )
    used: set[tuple] = set()
    while True:
        rng.shuffle(block)
        for kind, what in block:
            via_surrogate = False
            if kind == "registry":
                workload, dataset = what
                record = {
                    "workload": workload,
                    "dataset": dataset,
                    **rng.choices(ranked[what], cum_weights=weights)[0],
                }
                via_surrogate = rng.random() < spec["surrogate_share"]
            elif kind == "pathfinder":
                record = _targeting(rng, dict(rng.choice(pathfinder)))
            else:
                identity, text = random_skeleton(rng, what)
                while identity in used:
                    identity, text = random_skeleton(rng, what)
                used.add(identity)
                record = _targeting(rng, {"skeleton": text})
            record["iterations"] = rng.randint(1, 500)
            yield record, via_surrogate


# sweep-fleet ---------------------------------------------------------------
def sweep_axes(
    seed: int, spec: dict[str, Any]
) -> list[tuple[str, list[int]]]:
    """``(workload, sizes)`` per grid, workloads in fixed rotation."""
    rng = random.Random(f"sweep-fleet/{seed}")
    axes = []
    for _ in range(spec["axes_per_workload"]):
        for name, (low, high) in spec["size_ranges"].items():
            sizes = sorted(rng.sample(range(low, high + 1), spec["sizes"]))
            axes.append((name, sizes))
    return axes


def sweep_programs(name: str, sizes: list[int]) -> tuple[list, list]:
    """The workload's skeletons and hints at each size of the axis."""
    workload = get_workload(name)
    datasets = [Dataset(str(size), size) for size in sizes]
    return (
        [workload.skeleton(d) for d in datasets],
        [workload.hints(d) for d in datasets],
    )
