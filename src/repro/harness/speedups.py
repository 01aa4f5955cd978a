"""Figs. 7-12 and Table II: speedup predictions vs measurements."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.speedup import accuracy_crossover_iterations
from repro.harness.context import ExperimentContext
from repro.util.stats import arithmetic_mean
from repro.util.tables import Table, series_table
from repro.workloads.base import Dataset, Workload
from repro.workloads.registry import paper_workloads


@dataclass(frozen=True)
class SpeedupVsSizeResult:
    """Figs. 7/9/11: speedups across data sizes for one application."""

    application: str
    labels: tuple[str, ...]
    measured: tuple[float, ...]
    predicted_with_transfer: tuple[float, ...]
    predicted_without_transfer: tuple[float, ...]

    def as_table(self) -> Table:
        return series_table(
            f"GPU speedup vs data size — {self.application} "
            "(Figs. 7/9/11 family)",
            list(self.labels),
            {
                "measured": self.measured,
                "pred w/ transfer": self.predicted_with_transfer,
                "pred w/o transfer": self.predicted_without_transfer,
            },
            x_label="data size",
            value_format="{:.2f}",
        )

    def render(self) -> str:
        return self.as_table().render()


def run_speedup_vs_size(
    ctx: ExperimentContext, workload: Workload, iterations: int = 1
) -> SpeedupVsSizeResult:
    # One structural pass over the whole size axis (docs/SWEEP.md);
    # the per-dataset reports below then read from the cache.
    ctx.project_all(workload)
    labels, measured, with_t, without_t = [], [], [], []
    for dataset in workload.datasets():
        report = ctx.report(workload, dataset)
        labels.append(dataset.label)
        measured.append(report.measured.speedup(iterations))
        with_t.append(report.predicted_speedup("both", iterations))
        without_t.append(report.predicted_speedup("kernel", iterations))
    return SpeedupVsSizeResult(
        application=workload.name,
        labels=tuple(labels),
        measured=tuple(measured),
        predicted_with_transfer=tuple(with_t),
        predicted_without_transfer=tuple(without_t),
    )


@dataclass(frozen=True)
class SpeedupVsIterationsResult:
    """Figs. 8/10/12: speedups across iteration counts for one dataset."""

    application: str
    data_size: str
    iterations: tuple[int, ...]
    measured: tuple[float, ...]
    predicted_with_transfer: tuple[float, ...]
    predicted_without_transfer: tuple[float, ...]
    #: Largest iteration count where the transfer-aware prediction stays
    #: >= 2x more accurate (paper: ~18 CFD, ~70 HotSpot, ~228 SRAD).
    accuracy_crossover: int | None
    #: Prediction error as iterations -> infinity (kernel error).
    limit_error: float

    def as_table(self) -> Table:
        return series_table(
            f"GPU speedup vs iterations — {self.application} "
            f"{self.data_size} (Figs. 8/10/12 family)",
            list(self.iterations),
            {
                "measured": self.measured,
                "pred w/ transfer": self.predicted_with_transfer,
                "pred w/o transfer": self.predicted_without_transfer,
            },
            x_label="iterations",
            value_format="{:.2f}",
        )

    def render(self) -> str:
        body = self.as_table().render()
        return body + (
            f"\n2x-accuracy crossover: {self.accuracy_crossover} iterations; "
            f"error in the infinite-iteration limit: {self.limit_error:.1%}"
        )


def run_speedup_vs_iterations(
    ctx: ExperimentContext,
    workload: Workload,
    dataset: Dataset | None = None,
    iteration_counts: tuple[int, ...] | None = None,
) -> SpeedupVsIterationsResult:
    """Sweep iteration counts for the workload's largest dataset."""
    if not workload.is_iterative:
        raise ValueError(f"{workload.name} is not iterative")
    dataset = dataset or max(workload.datasets(), key=lambda d: d.size)
    counts = iteration_counts or workload.iteration_sweep()
    report = ctx.report(workload, dataset)

    measured, with_t, without_t = [], [], []
    for n in counts:
        measured.append(report.measured.speedup(n))
        with_t.append(report.predicted_speedup("both", n))
        without_t.append(report.predicted_speedup("kernel", n))

    crossover = accuracy_crossover_iterations(
        predicted_kernel=report.projection.kernel_seconds,
        predicted_transfer=report.projection.transfer_seconds,
        measured_kernel=report.measured.kernel_seconds,
        measured_transfer=report.measured.transfer_seconds,
    )
    limit_error = abs(
        report.measured.kernel_seconds / report.projection.kernel_seconds - 1
    )
    return SpeedupVsIterationsResult(
        application=workload.name,
        data_size=dataset.label,
        iterations=tuple(counts),
        measured=tuple(measured),
        predicted_with_transfer=tuple(with_t),
        predicted_without_transfer=tuple(without_t),
        accuracy_crossover=crossover,
        limit_error=limit_error,
    )


@dataclass(frozen=True)
class Table2Row:
    application: str
    data_set: str
    kernel_only_error: float
    transfer_only_error: float
    both_error: float


@dataclass(frozen=True)
class Table2Result:
    """Table II: speedup-prediction errors under the three time models."""

    rows: tuple[Table2Row, ...]
    application_averages: dict[str, Table2Row]

    def _mean(self, selector) -> float:
        return arithmetic_mean([selector(r) for r in self.rows])

    @property
    def dataset_average(self) -> Table2Row:
        """Weights every data set equally (paper's first average row)."""
        return Table2Row(
            "Average (data sets)",
            "",
            self._mean(lambda r: r.kernel_only_error),
            self._mean(lambda r: r.transfer_only_error),
            self._mean(lambda r: r.both_error),
        )

    @property
    def application_average(self) -> Table2Row:
        """Weights every application equally (the paper's headline).

        The paper's 255% / 68% / 9% row is this one.
        """
        rows = list(self.application_averages.values())
        return Table2Row(
            "Average (applications)",
            "",
            arithmetic_mean([r.kernel_only_error for r in rows]),
            arithmetic_mean([r.transfer_only_error for r in rows]),
            arithmetic_mean([r.both_error for r in rows]),
        )

    def row(self, application: str, data_set: str) -> Table2Row:
        for r in self.rows:
            if r.application == application and r.data_set == data_set:
                return r
        raise KeyError(f"no row {application}/{data_set}")

    def as_table(self) -> Table:
        table = Table(
            ["Application", "Data Set", "Kernel Only", "Transfer Only",
             "Kernel and Transfer"],
            title="Table II: error magnitude of the predicted GPU speedup",
        )

        def fmt(row: Table2Row) -> list[str]:
            return [
                row.application,
                row.data_set,
                f"{row.kernel_only_error:.0%}",
                f"{row.transfer_only_error:.0%}",
                f"{row.both_error:.0%}",
            ]

        seen_apps: list[str] = []
        for r in self.rows:
            table.add_row(fmt(r))
            if r.application not in seen_apps:
                seen_apps.append(r.application)
        for app in seen_apps:
            avg = self.application_averages[app]
            if avg.data_set == "Average":
                table.add_row(fmt(avg))
        table.add_row(fmt(self.dataset_average))
        table.add_row(fmt(self.application_average))
        return table

    def render(self) -> str:
        return self.as_table().render()


def run_table2_speedup_error(
    ctx: ExperimentContext,
    workloads: tuple[Workload, ...] | None = None,
    iterations: int = 1,
) -> Table2Result:
    rows: list[Table2Row] = []
    app_averages: dict[str, Table2Row] = {}
    for workload in workloads or paper_workloads():
        app_rows: list[Table2Row] = []
        for dataset in workload.datasets():
            report = ctx.report(workload, dataset)
            row = Table2Row(
                application=workload.name,
                data_set=dataset.label,
                kernel_only_error=report.speedup_error("kernel", iterations),
                transfer_only_error=report.speedup_error(
                    "transfer", iterations
                ),
                both_error=report.speedup_error("both", iterations),
            )
            rows.append(row)
            app_rows.append(row)
        app_averages[workload.name] = Table2Row(
            workload.name,
            "Average" if len(app_rows) > 1 else app_rows[0].data_set,
            arithmetic_mean([r.kernel_only_error for r in app_rows]),
            arithmetic_mean([r.transfer_only_error for r in app_rows]),
            arithmetic_mean([r.both_error for r in app_rows]),
        )
    return Table2Result(tuple(rows), app_averages)
