"""Shared experiment state: one testbed, one calibration, cached runs."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.projector import GrophecyPlusPlus
from repro.core.prediction import Projection
from repro.obs.trace import span as trace_span
from repro.core.report import MeasuredApplication, PredictionReport
from repro.gpu.arch import quadro_fx_5600
from repro.pcie.calibration import calibrate_bus
from repro.pcie.channel import MemoryKind
from repro.sim.gpu_sim import KernelWork, kernel_work_from_skeleton
from repro.sim.machine import VirtualTestbed, argonne_testbed
from repro.sweep.engine import SweepEngine
from repro.workloads.base import Dataset, Workload

#: Measurement repetitions, per the paper's methodology.
REPETITIONS = 10


@dataclass(frozen=True)
class CalibratedFactors:
    """Fitted hardware factors for one (workload, dataset)."""

    kernel_factor: float
    cpu_factor: float


class ExperimentContext:
    """Everything an experiment needs, built once and cached.

    Construction runs the paper's setup sequence: boot the (virtual)
    testbed, auto-calibrate the PCIe model with the two-point synthetic
    benchmark, and instantiate GROPHECY++ against the testbed's GPU
    architecture.
    """

    def __init__(
        self,
        seed: int = 2013,
        testbed: VirtualTestbed | None = None,
        batched_transfers: bool = False,
        explorer: str = "fast",
    ) -> None:
        """Multi-dataset projections are served through the parametric
        :class:`~repro.sweep.engine.SweepEngine` — the first projection
        of a workload sweeps *all* its datasets in one structural pass.
        Results are identical to the per-point projector
        (``docs/SWEEP.md``).
        """
        self.testbed = testbed or argonne_testbed(seed)
        self.bus_model = calibrate_bus(self.testbed.bus)
        self._batched_transfers = batched_transfers
        self.projector = GrophecyPlusPlus(
            quadro_fx_5600(),
            self.bus_model,
            batched_transfers=batched_transfers,
            explorer=explorer,
        )
        self._sweep_engine: SweepEngine | None = None
        self._projections: dict[tuple[str, str], Projection] = {}
        self._measured: dict[tuple[str, str], MeasuredApplication] = {}
        self._factors: dict[tuple[str, str], CalibratedFactors] = {}
        self._reports: dict[tuple[str, str], PredictionReport] = {}

    # --- prediction side -----------------------------------------------------
    @property
    def sweep_engine(self) -> SweepEngine:
        """The context's sweep engine (built lazily, shares the model)."""
        if self._sweep_engine is None:
            self._sweep_engine = SweepEngine(
                self.projector.model,
                self.bus_model,
                self.projector.space,
                batched_transfers=self._batched_transfers,
            )
        return self._sweep_engine

    def project_all(
        self,
        workload: Workload,
        datasets: tuple[Dataset, ...] | list[Dataset] | None = None,
    ) -> list[Projection]:
        """Project every dataset of a workload in one sweep pass.

        Cached points are reused; only the missing ones go through the
        sweep engine.  Returns projections in dataset order.
        """
        points = (
            list(datasets)
            if datasets is not None
            else list(workload.datasets())
        )
        missing = [
            d
            for d in points
            if (workload.name, d.label) not in self._projections
        ]
        if missing:
            with trace_span(
                "project-all",
                category="harness",
                workload=workload.name,
                points=len(missing),
            ):
                swept = self.sweep_engine.sweep_workload(
                    workload, datasets=missing
                )
            for dataset, projection in zip(missing, swept):
                self._projections[(workload.name, dataset.label)] = projection
        return [
            self._projections[(workload.name, d.label)] for d in points
        ]

    def projection(self, workload: Workload, dataset: Dataset) -> Projection:
        key = (workload.name, dataset.label)
        if key not in self._projections:
            # One structural pass covers the whole workload; the
            # requested dataset may be outside workload.datasets()
            # (custom sweeps), in which case fall through below.
            self.project_all(workload)
            if key not in self._projections:
                program = workload.skeleton(dataset)
                with trace_span(
                    "project-point",
                    category="harness",
                    workload=workload.name,
                    dataset=dataset.label,
                ):
                    self._projections[key] = self.projector.project(
                        program, workload.hints(dataset)
                    )
        return self._projections[key]

    # --- measured side ----------------------------------------------------
    def kernel_works(
        self, workload: Workload, dataset: Dataset
    ) -> list[KernelWork]:
        program = workload.skeleton(dataset)
        arrays = program.array_map
        return [
            kernel_work_from_skeleton(
                k, arrays, self.testbed.gpu_arch.strict_coalescing
            )
            for k in program.kernels
        ]

    def factors(
        self, workload: Workload, dataset: Dataset
    ) -> CalibratedFactors:
        """Fit the replayed-testbed hardware factors (DESIGN.md §2).

        The per-dataset kernel factor is the single scalar that makes the
        virtual GPU's noise-free kernel-sequence time equal the paper's
        Table I measurement; the CPU factor does the same against the CPU
        anchor.  Relative time between kernels keeps the simulator's own
        structure.
        """
        key = (workload.name, dataset.label)
        if key in self._factors:
            return self._factors[key]
        targets = workload.testbed_targets(dataset)
        works = self.kernel_works(workload, dataset)
        launch = self.testbed.gpu.params.launch_overhead
        total_body = sum(
            self.testbed.gpu.expected_kernel_time(w) - launch for w in works
        )
        launch_total = launch * len(works)
        body_target = max(
            targets.kernel_seconds - launch_total, 0.1 * targets.kernel_seconds
        )
        kernel_factor = body_target / total_body
        roofline = self.testbed.cpu.model.time(workload.cpu_profile(dataset))
        cpu_factor = targets.cpu_seconds / roofline
        self._factors[key] = CalibratedFactors(kernel_factor, cpu_factor)
        return self._factors[key]

    def measured(
        self, workload: Workload, dataset: Dataset
    ) -> MeasuredApplication:
        """Run the 'hand-coded CUDA + OpenMP' measurement on the testbed.

        Kernel, per-transfer, and CPU times are each the arithmetic mean
        of ten runs.  The transfer set is the same plan the hand-coded
        port would implement (the analyzer's plan), including the paper's
        Fig. 5 per-transfer quirks.
        """
        key = (workload.name, dataset.label)
        if key in self._measured:
            return self._measured[key]
        targets = workload.testbed_targets(dataset)
        factors = self.factors(workload, dataset)
        works = self.kernel_works(workload, dataset)

        kernel_seconds = sum(
            self.testbed.measure_kernel(
                w, factors.kernel_factor, REPETITIONS
            ).mean
            for w in works
        )
        plan = self.projection(workload, dataset).plan
        per_transfer = tuple(
            self.testbed.measure_transfer(
                t.bytes,
                t.direction,
                MemoryKind.PINNED,
                quirk=targets.quirk_for(t.array, t.direction),
                repetitions=REPETITIONS,
            ).mean
            * targets.transfer_context
            for t in plan.transfers
        )
        cpu_seconds = self.testbed.measure_cpu(
            workload.cpu_profile(dataset), factors.cpu_factor, REPETITIONS
        ).mean
        self._measured[key] = MeasuredApplication(
            label=f"{workload.name}/{dataset.label}",
            kernel_seconds=kernel_seconds,
            transfer_seconds=sum(per_transfer),
            cpu_seconds=cpu_seconds,
            per_transfer_seconds=per_transfer,
        )
        return self._measured[key]

    def report(
        self, workload: Workload, dataset: Dataset
    ) -> PredictionReport:
        key = (workload.name, dataset.label)
        report = self._reports.get(key)
        if report is None:
            report = PredictionReport(
                projection=self.projection(workload, dataset),
                measured=self.measured(workload, dataset),
            )
            self._reports[key] = report
        return report
