"""Exhaustive exploration of the transformation space.

Two paths score the same grid and return equal
:class:`KernelProjection` records: the fused explorer (``"fast"``), one
:func:`~repro.gpu.vectorized.fused_seconds` pass over the kernel's
:meth:`~repro.transform.analysis.KernelAnalysis.config_columns`, and the
scalar reference (``"reference"``), :meth:`GpuPerformanceModel.breakdown`
per mapping.  Both keep only the :data:`TOP_K` fastest legal mappings
plus counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.gpu.characteristics import KernelCharacteristics
from repro.gpu.model import GpuPerformanceModel, GpuTimingBreakdown
from repro.gpu.vectorized import ScoreArena, fused_seconds
from repro.obs.trace import span as trace_span
from repro.skeleton.kernel import KernelSkeleton
from repro.skeleton.program import ProgramSkeleton
from repro.transform.analysis import analyze_kernel
from repro.transform.space import MappingConfig, TransformationSpace
from repro.transform.synthesize import synthesize_characteristics

#: How many of the fastest legal mappings a :class:`KernelProjection`
#: keeps.  The projected time needs only the first; the runner-up feeds
#: provenance's margin.
TOP_K = 2

#: The exploration paths: the fused scorer and the scalar oracle.
EXPLORERS = ("fast", "reference")

#: Fused-pass scratch buffers, one arena per thread: concurrent passes
#: on a shared arena would overwrite each other's buffers, and reusing
#: one saves a cold search its ~30 buffer allocations.
_ARENAS = threading.local()


@dataclass(frozen=True)
class CandidateResult:
    """One explored mapping and its projected time."""

    config: MappingConfig
    characteristics: KernelCharacteristics
    breakdown: GpuTimingBreakdown

    @property
    def seconds(self) -> float:
        return self.breakdown.seconds


@dataclass(frozen=True)
class KernelProjection:
    """Outcome of exploring one kernel: the head of the ranking + counts.

    ``candidates`` holds the :data:`TOP_K` fastest legal mappings,
    fastest first, ties in grid order; ``best`` is ``candidates[0]``.
    ``explored`` counts the legal mappings scored and ``skipped`` the
    ones rejected (synthesis failures and unlaunchable occupancy).
    """

    kernel: str
    best: CandidateResult
    candidates: tuple[CandidateResult, ...]
    explored: int
    skipped: int

    @property
    def seconds(self) -> float:
        """The paper's 'projected kernel time': the best mapping's time."""
        return self.best.seconds

    @property
    def search_width(self) -> int:
        return self.explored + self.skipped

    def as_table(self, top: int | None = None):
        """The head of the search ranking as a table, fastest first.

        ``top`` limits the candidate rows; without it a last row reports
        how many mappings were skipped as illegal.
        """
        from repro.util.tables import Table

        table = Table(
            ["mapping", "time (us)", "regime", "MWP", "CWP", "coalesced",
             "occupancy"],
            title=f"transformation search for {self.kernel!r} "
            f"({self.search_width} mappings)",
        )
        for candidate in self.candidates[:top]:
            bd = candidate.breakdown
            # Compare configs, not identity: cache round-trips rebuild
            # equal-but-distinct candidate objects.
            marker = " <- best" if candidate.config == self.best.config else ""
            table.add_row(
                [
                    candidate.config.label() + marker,
                    f"{candidate.seconds * 1e6:.1f}",
                    bd.regime,
                    f"{bd.mwp:.1f}",
                    f"{bd.cwp:.1f}",
                    f"{candidate.characteristics.coalesced_fraction:.0%}",
                    f"{bd.occupancy.occupancy_fraction:.0%}",
                ]
            )
        if top is None and self.skipped:
            table.add_row(
                [f"{self.skipped} mapping(s)", "-", "skipped: illegal",
                 "-", "-", "-", "-"]
            )
        return table


@dataclass(frozen=True)
class ProgramProjection:
    """Per-kernel projections for a whole program (one iteration)."""

    program: str
    kernels: tuple[KernelProjection, ...]

    @property
    def seconds(self) -> float:
        return sum(k.seconds for k in self.kernels)

    def kernel(self, name: str) -> KernelProjection:
        for k in self.kernels:
            if k.kernel == name:
                return k
        raise KeyError(f"no projection for kernel {name!r}")


def no_legal_mapping(
    kernel_name: str, arch_name: str, tried: int
) -> ValueError:
    """The exploration-failed error, identical across both explorers and
    the sweep engine (tests compare messages)."""
    return ValueError(
        f"no legal mapping for kernel {kernel_name!r} on "
        f"{arch_name} (tried {tried})"
    )


def explore_configs(
    kernel: KernelSkeleton,
    program: ProgramSkeleton,
    model: GpuPerformanceModel,
    configs: Iterable[MappingConfig],
) -> tuple[list[CandidateResult], list[tuple[MappingConfig, str]]]:
    """Score an explicit list of mappings through the scalar oracle.

    Returns the scored candidates and the rejected (config, reason)
    pairs, both in input order; no best-selection.
    """
    arrays = program.array_map
    candidates: list[CandidateResult] = []
    skipped: list[tuple[MappingConfig, str]] = []
    for config in configs:
        # Synthesis can reject a config too (no parallel loop to map, a
        # mapping that degenerates to zero work) — record it as skipped
        # rather than aborting the whole exploration.
        try:
            chars = synthesize_characteristics(
                kernel,
                arrays,
                config,
                strict_coalescing=model.arch.strict_coalescing,
            )
            breakdown = model.breakdown(chars)
        except ValueError as exc:
            skipped.append((config, str(exc)))
            continue
        candidates.append(CandidateResult(config, chars, breakdown))
    return candidates, skipped


def top_rows(
    seconds: np.ndarray, points: int = 1
) -> tuple[list[list[int]], list[int]]:
    """Rank ``points`` equal segments of a fused ``seconds`` array.

    Returns, per segment, the row indices of its :data:`TOP_K` fastest
    legal rows (fastest first; the stable sort keeps ties in row order,
    as ``min()`` does) and its legal-row count.  Illegal rows carry
    ``+inf`` (see :func:`~repro.gpu.vectorized.fused_seconds`).
    """
    grid = seconds.reshape(points, -1 if seconds.size else 0)
    legal = np.count_nonzero(grid != np.inf, axis=1).tolist()
    order = np.argsort(grid, axis=1, kind="stable")[:, :TOP_K].tolist()
    return [rows[: min(TOP_K, n)] for rows, n in zip(order, legal)], legal


def top_projection(
    kernel_name: str,
    model: GpuPerformanceModel,
    tried: int,
    explored: int,
    ranked: Iterable[MappingConfig],
    characteristics: Callable[[MappingConfig], KernelCharacteristics],
) -> KernelProjection:
    """The projection of a fused ranking, head rows through the oracle.

    ``ranked`` holds the fastest configs in order; each is materialized
    with ``characteristics`` and the scalar ``model.breakdown``, whose
    seconds are bitwise-equal to the fused pass's.
    """
    if not explored:
        raise no_legal_mapping(kernel_name, model.arch.name, tried)
    candidates = []
    for config in ranked:
        chars = characteristics(config)
        candidates.append(
            CandidateResult(config, chars, model.breakdown(chars))
        )
    return KernelProjection(
        kernel=kernel_name,
        best=candidates[0],
        candidates=tuple(candidates),
        explored=explored,
        skipped=tried - explored,
    )


def _arena() -> ScoreArena:
    """This thread's scratch arena (fused passes overwrite its buffers)."""
    arena = getattr(_ARENAS, "arena", None)
    if arena is None:
        arena = _ARENAS.arena = ScoreArena()
    return arena


def _explore_fused(
    kernel: KernelSkeleton,
    program: ProgramSkeleton,
    model: GpuPerformanceModel,
    space: TransformationSpace,
) -> KernelProjection:
    """One fused scoring pass over the grid; only the head materializes."""
    configs = space.configs()
    with trace_span("search", kernel=kernel.name, explorer="fast") as search:
        try:
            analysis = analyze_kernel(
                kernel, program.array_map, model.arch.strict_coalescing
            )
        except ValueError:
            # No parallel loop to map: every config is skipped.
            search.set(explored=0, illegal=len(configs))
            raise no_legal_mapping(
                kernel.name, model.arch.name, len(configs)
            ) from None
        columns, index_map, _errors = analysis.config_columns(configs)
        seconds, explored = fused_seconds(model, columns, _arena())
        (rows,), _legal = top_rows(seconds)
        search.set(explored=explored, illegal=len(configs) - explored)
    return top_projection(
        kernel.name,
        model,
        len(configs),
        explored,
        [configs[i] for i in index_map[rows].tolist()],
        analysis.characteristics,
    )


def _explore_reference(
    kernel: KernelSkeleton,
    program: ProgramSkeleton,
    model: GpuPerformanceModel,
    space: TransformationSpace,
) -> KernelProjection:
    """The scalar oracle: score every mapping, keep the ranking's head."""
    with trace_span(
        "search", kernel=kernel.name, explorer="reference"
    ) as search:
        candidates, skipped = explore_configs(
            kernel, program, model, space.configs()
        )
        search.set(explored=len(candidates), illegal=len(skipped))
    if not candidates:
        raise no_legal_mapping(kernel.name, model.arch.name, len(skipped))
    # sorted() is stable: tied times keep grid order, like min().
    head = tuple(sorted(candidates, key=lambda c: c.seconds)[:TOP_K])
    return KernelProjection(
        kernel=kernel.name,
        best=head[0],
        candidates=head,
        explored=len(candidates),
        skipped=len(skipped),
    )


def explore_kernel(
    kernel: KernelSkeleton,
    program: ProgramSkeleton,
    model: GpuPerformanceModel,
    space: TransformationSpace | None = None,
    explorer: str = "fast",
) -> KernelProjection:
    """Score every mapping in the space; keep the fastest legal ones.

    Mappings that violate hardware limits (unlaunchable block sizes,
    shared-memory or register overflow) count as ``skipped``, mirroring
    how a real tuning search rejects illegal configurations.

    ``explorer`` selects the scoring path: ``"fast"`` (default) scores
    the whole grid in one fused NumPy pass and materializes only the
    :data:`TOP_K` head; ``"reference"`` runs the scalar model on every
    mapping.  Both return equal projections (see ``docs/EXPLORER.md``).
    """
    if explorer not in EXPLORERS:
        raise ValueError(
            f"unknown explorer {explorer!r}: expected 'fast' or 'reference'"
        )
    space = space or TransformationSpace.default()
    if explorer == "fast":
        return _explore_fused(kernel, program, model, space)
    return _explore_reference(kernel, program, model, space)


def project_program(
    program: ProgramSkeleton,
    model: GpuPerformanceModel,
    space: TransformationSpace | None = None,
    explorer: str = "fast",
) -> ProgramProjection:
    """Project every kernel of a program (one application iteration)."""
    projections = tuple(
        explore_kernel(kernel, program, model, space, explorer=explorer)
        for kernel in program.kernels
    )
    return ProgramProjection(program=program.name, kernels=projections)
