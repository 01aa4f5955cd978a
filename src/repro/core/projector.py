"""The projector classes: GROPHECY and GROPHECY++, and the one
projection pipeline every serving path shares.

:func:`plan_transfers` (what crosses the bus) and :func:`integrate`
(price each transfer, assemble the :class:`Projection`) are the only
places a transfer plan is analyzed and a projection is built.
:class:`GrophecyPlusPlus` calls :func:`plan_transfers` directly — it is
the uncached oracle.  The serving paths (the service engine, the sweep
engine and the surrogate's plan preparation) read plans through
:data:`PLAN_STORE`, which runs the analyzer once per program content:
the plan depends on the program, its hints and ``batched`` alone, never
on the architecture, the bus or the iteration count.
"""

from __future__ import annotations

import sys

from repro.core.keys import plan_key
from repro.datausage.analyzer import analyze_transfers
from repro.datausage.hints import AnalysisHints
from repro.datausage.transfers import TransferPlan
from repro.obs.trace import span as trace_span
from repro.gpu.arch import GPUArchitecture
from repro.gpu.model import GpuPerformanceModel
from repro.pcie.allocation import AllocationModel
from repro.pcie.channel import MemoryKind
from repro.pcie.model import BusModel
from repro.skeleton.program import ProgramSkeleton
from repro.transform.explorer import ProgramProjection, project_program
from repro.transform.space import TransformationSpace
from repro.util.store import BoundedStore
from repro.core.prediction import Projection


class Grophecy:
    """The base framework: project kernel execution time from skeletons.

    Explores the transformation space for every kernel of the program and
    reports the best achievable time per kernel — what the SC'11 framework
    provides, and what Table II's "Kernel Only" column predicts with.
    """

    def __init__(
        self,
        gpu: GPUArchitecture | GpuPerformanceModel,
        space: TransformationSpace | None = None,
        explorer: str = "fast",
    ) -> None:
        """``explorer`` selects the exploration path (``"fast"`` or the
        scalar ``"reference"`` oracle — equal results, see
        ``docs/EXPLORER.md``)."""
        self._model = (
            gpu
            if isinstance(gpu, GpuPerformanceModel)
            else GpuPerformanceModel(gpu)
        )
        self._space = space or TransformationSpace.default()
        self._explorer = explorer

    @property
    def model(self) -> GpuPerformanceModel:
        return self._model

    @property
    def space(self) -> TransformationSpace:
        return self._space

    def project_kernels(self, program: ProgramSkeleton) -> ProgramProjection:
        """Best-mapping kernel projection for each kernel of the program."""
        return project_program(
            program, self._model, self._space, explorer=self._explorer
        )


class GrophecyPlusPlus(Grophecy):
    """GROPHECY extended with data-transfer projection (this paper).

    Adds the data usage analyzer (what must cross the bus) and the
    calibrated PCIe model (how long each crossing takes); the combined
    projection predicts the end-to-end GPU speedup.
    """

    def __init__(
        self,
        gpu: GPUArchitecture | GpuPerformanceModel,
        bus: BusModel,
        space: TransformationSpace | None = None,
        batched_transfers: bool = False,
        allocation: AllocationModel | None = None,
        memory: MemoryKind = MemoryKind.PINNED,
        explorer: str = "fast",
    ) -> None:
        """``allocation``: optionally charge one-time buffer-allocation
        costs (the paper's future-work extension); ``memory`` selects the
        host allocation kind those costs assume."""
        super().__init__(gpu, space, explorer=explorer)
        self._bus = bus
        self._batched = batched_transfers
        self._allocation = allocation
        self._memory = memory

    @property
    def bus(self) -> BusModel:
        return self._bus

    def project(
        self,
        program: ProgramSkeleton,
        hints: AnalysisHints | None = None,
    ) -> Projection:
        """Full projection: kernels + data usage + transfer times."""
        with trace_span("project", program=program.name):
            kernels = self.project_kernels(program)
            plan = plan_transfers(program, hints, self._batched)
            setup = (
                self._allocation.plan_setup_time(plan, self._memory)
                if self._allocation is not None
                else 0.0
            )
            return integrate(program.name, kernels, plan, self._bus, setup)


def plan_transfers(
    program: ProgramSkeleton,
    hints: AnalysisHints | None,
    batched: bool,
) -> TransferPlan:
    """What must cross the bus: the data usage analyzer's plan, merged
    into one transfer per direction when ``batched``.

    Always runs the analyzer (the oracle); serving paths read through
    :data:`PLAN_STORE` instead.
    """
    with trace_span(
        "transfer-planning", program=program.name, cached=False
    ) as planning:
        plan = _analyze(program, hints, batched)
        planning.set(transfers=plan.transfer_count, bytes=plan.total_bytes)
    return plan


def _analyze(
    program: ProgramSkeleton, hints: AnalysisHints | None, batched: bool
) -> TransferPlan:
    plan = analyze_transfers(program, hints)
    return plan.batched() if batched else plan


#: Plans a :class:`PlanStore` keeps (least recently used evicted first).
#: An entry retains about two kilobytes, so the store stays near two
#: megabytes while holding every registry dataset many times over.
PLAN_STORE_CAPACITY = 1024


class PlanStore(BoundedStore[TransferPlan]):
    """Bounded, thread-safe, content-keyed store of transfer plans.

    Keyed by :func:`~repro.core.keys.plan_key` — everything the data
    usage analyzer reads: the program (declaration, kernel and statement
    order included), the hints (``None`` and :meth:`AnalysisHints.none`
    share an entry) and ``batched``.  The value is the immutable
    :class:`TransferPlan`, equal to what :func:`plan_transfers` returns
    for the same inputs.  Only plans the analyzer produced are stored,
    so a program that fails validation raises on every call.  Two
    threads missing the same key at once may both analyze; they store
    equal plans.
    """

    def __init__(self) -> None:
        super().__init__(PLAN_STORE_CAPACITY, size=_retained_bytes)

    def plan(
        self,
        program: ProgramSkeleton,
        hints: AnalysisHints | None,
        batched: bool,
    ) -> TransferPlan:
        """:func:`plan_transfers`, analyzing only on the first sight of
        this content."""
        key = plan_key(program, hints, batched)
        with trace_span("transfer-planning", program=program.name) as planning:
            plan = self.get(key)
            cached = plan is not None
            if not cached:
                plan = _analyze(program, hints, batched)
                self.put(key, plan)
            planning.set(
                cached=cached,
                transfers=plan.transfer_count,
                bytes=plan.total_bytes,
            )
        return plan


def _retained_bytes(key: tuple, plan: TransferPlan) -> int:
    """Approximate bytes one entry keeps alive: key, plan, transfers."""
    parts = [key, *key, plan, vars(plan), plan.transfers]
    for transfer in plan.transfers:
        parts += (transfer, vars(transfer), transfer.array)
    return sum(sys.getsizeof(part) for part in parts)


#: The process-wide store every serving path reads plans through.
PLAN_STORE = PlanStore()


def integrate(
    program_name: str,
    kernels: ProgramProjection,
    plan: TransferPlan,
    bus: BusModel,
    setup_seconds: float = 0.0,
) -> Projection:
    """The paper's integration step: price every transfer of ``plan`` on
    ``bus`` and assemble the projection (kernel + transfer + setup)."""
    with trace_span("integrate", program=program_name):
        per_transfer = tuple(bus.predict_plan_by_transfer(plan))
        return Projection(
            program=program_name,
            kernel_seconds=kernels.seconds,
            transfer_seconds=sum(per_transfer),
            plan=plan,
            per_transfer_seconds=per_transfer,
            kernels=kernels,
            setup_seconds=setup_seconds,
        )
