"""The sweep engine: one structural precompute, cheap per-point evaluation.

:class:`SweepEngine` projects a whole parameter sweep — the same
application skeleton instantiated at many dataset sizes — in one pass:

1. **Certify sharing** (:mod:`repro.sweep.structure`): every point's
   kernel analyses must be identical except for the exposed work-item
   count; the anchor points' transfer plans must fit one affine template
   over the size axis.
2. **Evaluate**: the transformation grid of *all* points scores as a
   single :func:`~repro.gpu.vectorized.fused_seconds` NumPy pass per
   kernel and architecture, and only each point's ranking head is
   materialized; non-anchor transfer plans come from the template.
   Each point is then assembled by the core pipeline's
   :func:`~repro.core.projector.integrate`.

Every certificate failure degrades gracefully to the exact per-point
pipeline (never to a wrong answer), and both paths produce identical
:class:`~repro.core.prediction.Projection` objects — the equivalence
tests in ``tests/sweep/`` compare them with dataclass equality, and
``check=True`` runs that comparison inline as an oracle.  See
``docs/SWEEP.md`` for the design and the exactness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from repro.core.prediction import Projection
from repro.core.projector import PLAN_STORE, GrophecyPlusPlus, integrate
from repro.datausage.hints import AnalysisHints
from repro.datausage.transfers import TransferPlan
from repro.gpu.arch import GPUArchitecture
from repro.gpu.model import GpuPerformanceModel
from repro.gpu.registry import ArchSpec, get_arch, get_spec, spec_for_arch
from repro.gpu.vectorized import ScoreArena, fused_seconds
from repro.obs.trace import span as trace_span
from repro.pcie.model import BusModel
from repro.skeleton.program import ProgramSkeleton
from repro.sweep.structure import fit_plan_template, shared_kernel_analyses
from repro.transform.explorer import (
    KernelProjection,
    ProgramProjection,
    project_program,
    top_projection,
    top_rows,
)
from repro.transform.space import TransformationSpace
from repro.workloads.base import Dataset, Workload

#: Exact plans are computed at up to this many anchor points (smallest,
#: median, largest size); the affine template must interpolate all of
#: them, so a quadratic element count (e.g. an n x n grid swept over n)
#: is detected and sent down the exact path.
MAX_PLAN_ANCHORS = 3

@dataclass(frozen=True)
class SweepArgmin:
    """The best point of a sweep (first minimum in point order)."""

    #: Position of the winning point in the sweep's point order.
    index: int
    projection: Projection
    #: ``projection.total_seconds(1)`` — the quantity minimized.
    seconds: float
    stats: dict[str, int]


@dataclass(frozen=True)
class ArchSweepPoint:
    """One architecture of a cross-generation what-if, with its bus.

    ``arch_id`` is the registry id when the axis entry resolved through
    :mod:`repro.gpu.registry` (``None`` for a hand-built architecture
    passed directly); ``bus`` is whatever the axis priced transfers on —
    the engine's bus by default, the registry-paired PCIe default with
    ``buses="paired"``.
    """

    arch_id: str | None
    arch: GPUArchitecture
    bus: BusModel
    projection: Projection

    @property
    def seconds(self) -> float:
        """``projection.total_seconds(1)`` — the quantity compared."""
        return self.projection.total_seconds(1)


@dataclass(frozen=True)
class ArchSweepRow:
    """One architecture's row of an arch x dataset grid sweep."""

    arch_id: str | None
    arch: GPUArchitecture
    bus: BusModel
    projections: tuple[Projection, ...]


@dataclass(frozen=True)
class ArchArgmin:
    """The winning architecture of a fleet sweep (first minimum)."""

    index: int
    point: ArchSweepPoint
    seconds: float
    stats: dict[str, int]


@dataclass(frozen=True)
class BusSweepPoint:
    """One bus of a what-if sweep priced against a fixed transfer plan."""

    bus: BusModel
    transfer_seconds: float
    per_transfer_seconds: tuple[float, ...]


class SweepEngine:
    """Projects parameter sweeps; point-for-point equal to the projector.

    Construction mirrors :class:`~repro.core.projector.GrophecyPlusPlus`
    (same architecture/bus/space/batched-transfers knobs, fused
    exploration); ``stats`` exposes how the last sweep was served (how
    many coalescing groups shared one kernel analysis, how many plans
    came from the template rather than the exact analyzer).
    """

    def __init__(
        self,
        gpu: GPUArchitecture | GpuPerformanceModel,
        bus: BusModel,
        space: TransformationSpace | None = None,
        batched_transfers: bool = False,
    ) -> None:
        self._model = (
            gpu
            if isinstance(gpu, GpuPerformanceModel)
            else GpuPerformanceModel(gpu)
        )
        self._bus = bus
        self._space = space or TransformationSpace.default()
        self._batched = batched_transfers
        self.stats: dict[str, int] = {}

    @property
    def model(self) -> GpuPerformanceModel:
        return self._model

    @property
    def bus(self) -> BusModel:
        return self._bus

    # Public sweeps ---------------------------------------------------------
    def sweep_workload(
        self,
        workload: Workload,
        datasets: Sequence[Dataset] | None = None,
        check: bool = False,
    ) -> list[Projection]:
        """Project every dataset of a workload, in dataset order."""
        points = list(datasets) if datasets is not None else list(
            workload.datasets()
        )
        return self.sweep(
            [workload.skeleton(d) for d in points],
            hints=[workload.hints(d) for d in points],
            sizes=[d.size for d in points],
            check=check,
        )

    def sweep(
        self,
        programs: Sequence[ProgramSkeleton],
        hints: Sequence[AnalysisHints | None] | None = None,
        sizes: Sequence[int] | None = None,
        check: bool = False,
    ) -> list[Projection]:
        """Project every program, in input order.

        The one-row case of :meth:`sweep_arch_grid`, on the engine's own
        architecture and bus.  ``sizes`` is the sweep's numeric axis (one
        value per program); without it transfer plans are computed
        exactly at every point (only kernel scoring is shared).
        ``check=True`` additionally projects every point through
        :class:`~repro.core.projector.GrophecyPlusPlus` and raises
        ``AssertionError`` on any mismatch — the oracle mode the
        equivalence tests and the CLI's ``sweep --check`` use.
        """
        programs = list(programs)
        if not programs:
            return []
        (row,) = self.sweep_arch_grid(
            programs,
            [self._model.arch],
            hints=hints,
            sizes=sizes,
            buses=[self._bus],
            check=check,
        )
        return list(row.projections)

    # Argmin ----------------------------------------------------------------
    def argmin_workload(
        self,
        workload: Workload,
        datasets: Sequence[Dataset] | None = None,
    ) -> SweepArgmin:
        """:meth:`argmin` over a workload's datasets (in dataset order)."""
        points = list(datasets) if datasets is not None else list(
            workload.datasets()
        )
        return self.argmin(
            [workload.skeleton(d) for d in points],
            hints=[workload.hints(d) for d in points],
            sizes=[d.size for d in points],
        )

    def argmin(
        self,
        programs: Sequence[ProgramSkeleton],
        hints: Sequence[AnalysisHints | None] | None = None,
        sizes: Sequence[int] | None = None,
    ) -> SweepArgmin:
        """The sweep point with the smallest ``total_seconds(1)``.

        A full :meth:`sweep` (same validation, same projections), then
        the first minimum in point order — exactly what ``min()`` over
        the sweep's totals picks.
        """
        programs = list(programs)
        if not programs:
            raise ValueError("argmin needs at least one sweep point")
        projections = self.sweep(programs, hints=hints, sizes=sizes)
        totals = [p.total_seconds(1) for p in projections]
        index = min(range(len(totals)), key=lambda i: (totals[i], i))
        return SweepArgmin(
            index=index,
            projection=projections[index],
            seconds=totals[index],
            stats=dict(self.stats),
        )

    def sweep_buses(
        self, plan: TransferPlan, buses: Sequence[BusModel]
    ) -> list[BusSweepPoint]:
        """Price one fixed transfer plan on many buses (what-if studies).

        The transfer set is bus-independent, so a bus sweep never
        re-explores or re-analyzes — this is the sweep-engine face of
        the paper's PCIe-generation what-if.
        """
        points = []
        for bus in buses:
            per_transfer = tuple(bus.predict_plan_by_transfer(plan))
            points.append(
                BusSweepPoint(bus, sum(per_transfer), per_transfer)
            )
        return points

    # Architecture axis -----------------------------------------------------
    def sweep_arches_workload(
        self,
        workload: Workload,
        arches: Sequence["str | ArchSpec | GPUArchitecture"],
        dataset: Dataset | None = None,
        buses: "Sequence[BusModel] | str | None" = None,
        check: bool = False,
    ) -> list[ArchSweepPoint]:
        """:meth:`sweep_arches` on one workload dataset (largest by
        default — the porting decision is usually asked at full size)."""
        if dataset is None:
            dataset = max(workload.datasets(), key=lambda d: d.size)
        return self.sweep_arches(
            workload.skeleton(dataset),
            arches,
            hints=workload.hints(dataset),
            buses=buses,
            check=check,
        )

    def sweep_arches(
        self,
        program: ProgramSkeleton,
        arches: Sequence["str | ArchSpec | GPUArchitecture"],
        hints: AnalysisHints | None = None,
        buses: "Sequence[BusModel] | str | None" = None,
        check: bool = False,
    ) -> list[ArchSweepPoint]:
        """Score one program across an architecture fleet, in axis order.

        The transfer plan is architecture-independent, so it is analyzed
        once and re-priced per point; kernel analyses and characteristics
        grids are shared across every architecture with the same
        coalescing rules, so only the vectorized scoring pass runs per
        architecture.  ``arches`` entries are registry ids, specs, or
        explicit architectures; ``buses`` is ``None`` (engine bus for
        every point), ``"paired"`` (each registry arch's PCIe-generation
        default), or one explicit bus per axis entry.  ``check=True``
        re-projects every point through a fresh per-arch pipeline and
        asserts equality — the oracle mode.
        """
        rows = self.sweep_arch_grid(
            [program], arches, hints=[hints], buses=buses, check=check
        )
        return [
            ArchSweepPoint(row.arch_id, row.arch, row.bus, row.projections[0])
            for row in rows
        ]

    def argmin_arches(
        self,
        program: ProgramSkeleton,
        arches: Sequence["str | ArchSpec | GPUArchitecture"],
        hints: AnalysisHints | None = None,
        buses: "Sequence[BusModel] | str | None" = None,
    ) -> ArchArgmin:
        """The fleet's fastest architecture for one program.

        The fleet is small (registry-sized), so every point is evaluated;
        the strict ``<`` keeps the first minimum in axis order, exactly
        as a full sweep's ``min()`` would pick it.
        """
        points = self.sweep_arches(program, arches, hints=hints, buses=buses)
        best_index = -1
        best_seconds = float("inf")
        best: ArchSweepPoint | None = None
        for index, point in enumerate(points):
            seconds = point.seconds
            if seconds < best_seconds:
                best_index, best_seconds, best = index, seconds, point
        assert best is not None  # axis validated non-empty by the sweep
        stats = dict(self.stats)
        stats["points_evaluated"] = len(points)
        self.stats = stats
        return ArchArgmin(
            index=best_index, point=best, seconds=best_seconds, stats=stats
        )

    def sweep_arch_grid(
        self,
        programs: Sequence[ProgramSkeleton],
        arches: Sequence["str | ArchSpec | GPUArchitecture"],
        hints: Sequence[AnalysisHints | None] | None = None,
        sizes: Sequence[int] | None = None,
        buses: "Sequence[BusModel] | str | None" = None,
        check: bool = False,
    ) -> list[ArchSweepRow]:
        """A full architecture x point grid, one row per architecture.

        Reuse across the grid: transfer plans are computed once for the
        point axis (they do not depend on the architecture at all),
        read through the process-wide plan store
        (:data:`~repro.core.projector.PLAN_STORE`), and re-priced per
        row; kernel analyses and characteristics grids are
        built once per coalescing-rule group and scored per architecture.
        A failed sharing certificate degrades that group to the per-point
        exact pipeline, never to a wrong answer.
        """
        programs = list(programs)
        if not programs:
            raise ValueError("arch sweep needs at least one program")
        entries = self._resolve_arch_axis(arches, buses)
        hints_list = (
            list(hints) if hints is not None else [None] * len(programs)
        )
        if len(hints_list) != len(programs):
            raise ValueError(
                f"hints do not match programs: {len(hints_list)} vs "
                f"{len(programs)}"
            )
        if sizes is not None and len(sizes) != len(programs):
            raise ValueError(
                f"sizes do not match programs: {len(sizes)} vs "
                f"{len(programs)}"
            )
        models = [
            self._model
            if entry[1] == self._model.arch
            else GpuPerformanceModel(entry[1])
            for entry in entries
        ]
        with trace_span(
            "sweep",
            category="sweep",
            arches=len(entries),
            points=len(programs),
        ) as root:
            anchors = self._anchor_indices(len(programs), sizes)
            with trace_span(
                "sweep-plans", category="sweep", points=len(programs)
            ):
                maybe_plans, template_points = self._sweep_plans(
                    programs, hints_list, sizes, anchors
                )
                plans = [
                    plan
                    if plan is not None
                    else PLAN_STORE.plan(
                        programs[i], hints_list[i], self._batched
                    )
                    for i, plan in enumerate(maybe_plans)
                ]

            groups: dict[bool, list[int]] = {}
            for index, (_aid, arch, _bus) in enumerate(entries):
                groups.setdefault(arch.strict_coalescing, []).append(index)
            kernels: list[list[ProgramProjection] | None] = (
                [None] * len(entries)
            )
            shared_groups = 0
            for flag, members in groups.items():
                group_rows = self._shared_kernels(
                    programs, anchors, flag, [models[i] for i in members]
                )
                if group_rows is None:
                    for i in members:
                        kernels[i] = [
                            project_program(program, models[i], self._space)
                            for program in programs
                        ]
                else:
                    shared_groups += 1
                    for offset, i in enumerate(members):
                        kernels[i] = group_rows[offset]

            rows: list[ArchSweepRow] = []
            for index, (arch_id, arch, bus) in enumerate(entries):
                row_kernels = kernels[index]
                assert row_kernels is not None  # every group filled
                projections = tuple(
                    integrate(program.name, row_kernels[p], plans[p], bus)
                    for p, program in enumerate(programs)
                )
                rows.append(ArchSweepRow(arch_id, arch, bus, projections))
            self.stats = {
                "arches": len(entries),
                "points": len(programs),
                "coalescing_groups": len(groups),
                "groups_shared": shared_groups,
                "plans_computed": len(programs),
                "plans_from_template": template_points,
                "plans_reused_across_arches": (
                    (len(entries) - 1) * len(programs)
                ),
            }
            root.set(**self.stats)
        if check:
            for row in rows:
                oracle = GrophecyPlusPlus(
                    GpuPerformanceModel(row.arch),
                    row.bus,
                    self._space,
                    batched_transfers=self._batched,
                )
                for p, program in enumerate(programs):
                    exact = oracle.project(program, hints_list[p])
                    assert row.projections[p] == exact, (
                        f"arch sweep point ({row.arch.name}, {program.name})"
                        " diverged from the per-arch pipeline"
                    )
        return rows

    def _resolve_arch_axis(
        self,
        arches: Sequence["str | ArchSpec | GPUArchitecture"],
        buses: "Sequence[BusModel] | str | None",
    ) -> list[tuple["str | None", GPUArchitecture, BusModel]]:
        """Coerce the axis to (registry id, arch, bus) triples.

        Unknown registry ids raise
        :class:`~repro.gpu.registry.UnknownArchitectureError` (which
        every serving surface renders as the structured ``{error, field,
        hint}`` payload).
        """
        resolved: list[tuple["str | None", GPUArchitecture, "ArchSpec | None"]]
        resolved = []
        for item in arches:
            if isinstance(item, GPUArchitecture):
                spec = spec_for_arch(item)
                resolved.append((spec.id if spec else None, item, spec))
            elif isinstance(item, ArchSpec):
                resolved.append((item.id, item.architecture(), item))
            else:
                spec = get_spec(item)
                resolved.append((spec.id, get_arch(spec.id), spec))
        if not resolved:
            raise ValueError("arch sweep needs at least one architecture")
        if buses is None:
            bus_list: list[BusModel] = [self._bus] * len(resolved)
        elif isinstance(buses, str):
            if buses != "paired":
                raise ValueError(
                    f"unknown bus pairing {buses!r}; know 'paired'"
                )
            bus_list = [
                spec.bus() if spec is not None else self._bus
                for _aid, _arch, spec in resolved
            ]
        else:
            bus_list = list(buses)
            if len(bus_list) != len(resolved):
                raise ValueError(
                    f"buses do not match arches: {len(bus_list)} vs "
                    f"{len(resolved)}"
                )
        return [
            (arch_id, arch, bus)
            for (arch_id, arch, _spec), bus in zip(resolved, bus_list)
        ]

    def _shared_kernels(
        self,
        programs: list[ProgramSkeleton],
        anchors: list[int],
        strict_coalescing: bool,
        models: list[GpuPerformanceModel],
    ) -> list[list[ProgramProjection]] | None:
        """Kernel projections for every (model, point) of one coalescing
        group via a single shared analysis, or ``None`` when the sharing
        certificate fails (caller degrades to the per-point pipeline).

        Each kernel's per-point
        :meth:`~repro.transform.analysis.KernelAnalysis.config_columns`
        stack into one grid — it depends on the coalescing rules but not
        on the rest of the machine table — scored by one
        :func:`~repro.gpu.vectorized.fused_seconds` pass per architecture.
        Only each point's ranking head materializes, through
        :meth:`~repro.transform.analysis.KernelAnalysis.characteristics_at`
        and the scalar ``model.breakdown``.
        """
        shared = shared_kernel_analyses(programs, strict_coalescing, anchors)
        if shared is None:
            return None
        configs = self._space.configs()
        arena = ScoreArena()
        per_model_point: list[list[list[KernelProjection]]] = [
            [[] for _ in programs] for _ in models
        ]
        for analysis, point_iterations in shared:
            # Synthesis failures depend on the config alone, so every
            # point keeps the same rows (and the same index map).
            per_point = [
                analysis.config_columns(configs, iterations)
                for iterations in point_iterations
            ]
            index_map = per_point[0][1].tolist()
            columns = {
                field: np.concatenate([c[field] for c, _, _ in per_point])
                for field in per_point[0][0]
            }
            for m, model in enumerate(models):
                seconds, _legal = fused_seconds(model, columns, arena)
                ranked, legal = top_rows(seconds, len(point_iterations))
                for point, iterations in enumerate(point_iterations):
                    per_model_point[m][point].append(
                        top_projection(
                            analysis.kernel.name,
                            model,
                            len(configs),
                            legal[point],
                            [configs[index_map[r]] for r in ranked[point]],
                            partial(
                                analysis.characteristics_at,
                                parallel_iterations=iterations,
                            ),
                        )
                    )
        return [
            [
                ProgramProjection(
                    program=program.name,
                    kernels=tuple(per_model_point[m][p]),
                )
                for p, program in enumerate(programs)
            ]
            for m in range(len(models))
        ]

    @staticmethod
    def _anchor_indices(
        count: int, sizes: Sequence[int] | None
    ) -> list[int]:
        """Points where structure is certified exactly.

        Without a size axis there is nothing to interpolate along, so
        every point anchors; with one, the smallest, median, and largest
        points do (all of them when the sweep has at most
        :data:`MAX_PLAN_ANCHORS` points — a figure-style sweep is then
        certified at every point).
        """
        if sizes is None or count <= MAX_PLAN_ANCHORS:
            return list(range(count))
        order = sorted(range(count), key=lambda i: sizes[i])
        return sorted({order[0], order[count // 2], order[-1]})

    # Transfer side ---------------------------------------------------------
    def _sweep_plans(
        self,
        programs: list[ProgramSkeleton],
        hints_list: list[AnalysisHints | None],
        sizes: Sequence[int] | None,
        anchors: list[int],
    ) -> tuple[list[TransferPlan | None], int]:
        """Plans plus how many came from the template; ``None`` slots
        (and the anchors themselves) get exact plans through the plan
        store.

        Anchors always get exact plans; the template fitted through them
        serves the rest, unless the anchors reject it (non-affine
        element counts, differing transfer sequences) or a point's
        evaluation falls off the integer lattice.
        """
        count = len(programs)
        plans: list[TransferPlan | None] = [None] * count
        if sizes is None:
            return plans, 0
        for index in anchors:
            plans[index] = PLAN_STORE.plan(
                programs[index], hints_list[index], self._batched
            )
        if count <= len(anchors):
            return plans, 0
        template = fit_plan_template(
            [sizes[i] for i in anchors], [plans[i] for i in anchors]
        )
        if template is None:
            return plans, 0
        template_points = 0
        for index in range(count):
            if plans[index] is None:
                plans[index] = template.instantiate(
                    programs[index].name, sizes[index]
                )
                template_points += plans[index] is not None
        return plans, template_points
