"""Bulk training data: label feature rows at fused-scorer speed.

The generator walks every registered workload, builds one
:class:`~repro.transform.analysis.KernelAnalysis` per kernel (largest
dataset as the anchor), and sweeps a geometric size grid around each
kernel's native parallelism.  Each (kernel, size) cell is labeled by the
same fused pass the exact explorer runs —
:meth:`~repro.transform.analysis.KernelAnalysis.config_columns` at the
injected size, one :func:`~repro.gpu.vectorized.fused_argmin` over a
reused :class:`~repro.gpu.vectorized.ScoreArena` — so labels are
bitwise-identical to what the exact explorer would report at that size,
and a full training set (thousands of grids) costs seconds.

Rows where no legal mapping exists are dropped (the exact path raises
there; the surrogate never needs to answer them from the model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.gpu.arch import GPUArchitecture
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.vectorized import ScoreArena, fused_argmin
from repro.surrogate.features import (
    FEATURE_COUNT,
    fill_size_features,
    kernel_static_template,
)
from repro.transform.analysis import analyze_kernel
from repro.transform.space import TransformationSpace
from repro.workloads.base import Workload
from repro.workloads.registry import all_workloads


@dataclass(frozen=True)
class TrainingSet:
    """Labeled rows: features, log-time targets, winning config indices.

    ``groups`` tags every row with its source kernel (an index into
    ``kernel_names``), so splits can be stratified and evaluation can
    report per-kernel agreement.  ``sizes`` keeps the raw work-item
    count per row for domain diagnostics.
    """

    features: np.ndarray  # (rows, FEATURE_COUNT) float64
    log_seconds: np.ndarray  # (rows,) float64 — log best-mapping seconds
    best_index: np.ndarray  # (rows,) int64 — winner's index in the space
    groups: np.ndarray  # (rows,) int64 — kernel id per row
    sizes: np.ndarray  # (rows,) int64 — parallel iterations per row
    kernel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        rows = self.features.shape[0]
        for name in ("log_seconds", "best_index", "groups", "sizes"):
            if getattr(self, name).shape[0] != rows:
                raise ValueError(
                    f"{name} has {getattr(self, name).shape[0]} rows, "
                    f"features has {rows}"
                )
        if self.features.shape[1] != FEATURE_COUNT:
            raise ValueError(
                f"features must have {FEATURE_COUNT} columns, got "
                f"{self.features.shape[1]}"
            )

    @property
    def rows(self) -> int:
        return int(self.features.shape[0])

    def subset(self, indices: np.ndarray) -> "TrainingSet":
        return TrainingSet(
            features=self.features[indices],
            log_seconds=self.log_seconds[indices],
            best_index=self.best_index[indices],
            groups=self.groups[indices],
            sizes=self.sizes[indices],
            kernel_names=self.kernel_names,
        )


def size_grid(
    native: int, sizes_per_kernel: int, span: tuple[float, float]
) -> np.ndarray:
    """A geometric size grid around one kernel's native parallelism.

    Deduplicated and floored at 1; small kernels therefore contribute
    fewer distinct rows than ``sizes_per_kernel``, which is accounting,
    not error.
    """
    lo, hi = span
    if not (0 < lo <= hi):
        raise ValueError(f"invalid size span {span!r}")
    factors = np.geomspace(lo, hi, sizes_per_kernel)
    sizes = np.unique(
        np.maximum(1, np.rint(native * factors).astype(np.int64))
    )
    return sizes


def generate_training_set(
    arch: GPUArchitecture,
    space: TransformationSpace | None = None,
    workloads: Iterable[Workload] | None = None,
    sizes_per_kernel: int = 24,
    size_span: tuple[float, float] = (0.125, 64.0),
    max_kernels_per_workload: int | None = None,
) -> TrainingSet:
    """Generate labeled rows for every kernel of every workload.

    ``max_kernels_per_workload`` caps repetitive programs (PathFinder
    declares 64 near-identical stages); ``None`` takes everything.
    Deterministic: same inputs, same rows in the same order.
    """
    space = space or TransformationSpace.default()
    configs = space.configs()
    model = GpuPerformanceModel(arch)
    arena = ScoreArena()
    chosen = tuple(workloads) if workloads is not None else all_workloads()

    feature_blocks: list[np.ndarray] = []
    log_seconds: list[float] = []
    best_index: list[int] = []
    groups: list[int] = []
    sizes_out: list[int] = []
    kernel_names: list[str] = []

    for workload in chosen:
        dataset = max(workload.datasets(), key=lambda d: d.size)
        program = workload.skeleton(dataset)
        kernels = program.kernels
        if max_kernels_per_workload is not None:
            kernels = kernels[:max_kernels_per_workload]
        for kernel in kernels:
            try:
                analysis = analyze_kernel(
                    kernel, program.array_map, arch.strict_coalescing
                )
            except ValueError:
                continue  # no parallel loop to map; the exact path
                # rejects these kernels too
            kernel_id = len(kernel_names)
            kernel_names.append(f"{workload.name}/{kernel.name}")
            template = kernel_static_template(analysis, arch)
            sizes = size_grid(
                analysis.parallel_iterations, sizes_per_kernel, size_span
            )
            for size in sizes:
                columns, index_map, _errors = analysis.config_columns(
                    configs, int(size)
                )
                if index_map.shape[0] == 0:
                    continue
                row_index, seconds, legal = fused_argmin(
                    model, columns, arena
                )
                if row_index < 0 or legal == 0:
                    continue
                row = template.copy()
                fill_size_features(row, analysis, arch, int(size))
                feature_blocks.append(row)
                log_seconds.append(float(np.log(seconds)))
                best_index.append(int(index_map[row_index]))
                groups.append(kernel_id)
                sizes_out.append(int(size))

    if not feature_blocks:
        raise ValueError("training-set generation produced no rows")
    return TrainingSet(
        features=np.vstack(feature_blocks),
        log_seconds=np.asarray(log_seconds, dtype=np.float64),
        best_index=np.asarray(best_index, dtype=np.int64),
        groups=np.asarray(groups, dtype=np.int64),
        sizes=np.asarray(sizes_out, dtype=np.int64),
        kernel_names=tuple(kernel_names),
    )


def split_rows(
    rows: int, fractions: Sequence[float], seed: int = 0
) -> tuple[np.ndarray, ...]:
    """Deterministic shuffled split of ``rows`` into len(fractions)+1 parts.

    ``fractions`` are the leading parts' shares; the remainder forms the
    final part.  Every part is non-empty when ``rows`` allows it.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    total = sum(fractions)
    if not (0 < total < 1):
        raise ValueError(
            f"fractions must sum into (0, 1), got {fractions!r}"
        )
    order = np.random.default_rng(seed).permutation(rows)
    parts: list[np.ndarray] = []
    start = 0
    for fraction in fractions:
        stop = start + max(1, int(round(rows * fraction)))
        stop = min(stop, rows - 1)
        parts.append(order[start:stop])
        start = stop
    parts.append(order[start:])
    return tuple(parts)
