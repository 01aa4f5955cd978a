"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``list`` — workloads and their datasets;
- ``calibrate`` — run the 2-point bus calibration and print the models;
- ``project <workload>`` — full GROPHECY++ projection for one dataset;
- ``project-file <path>`` — project a skeleton written in the text
  format (see :mod:`repro.skeleton.parser`, examples in
  ``examples/skeletons/``);
- ``advise <workload>`` — pinned/pageable memory recommendation;
- ``experiment <id>`` — regenerate one paper artifact (table1, table2,
  fig2..fig12), optionally as markdown/CSV or an ASCII chart;
- ``sweep <workload>`` — parameter sweep along ``--axis size``,
  ``iterations``, or ``bus`` through the parametric sweep engine
  (``docs/SWEEP.md``); ``--check`` cross-checks every point against the
  per-point pipeline; ``--arch ID``/``--arch all`` scores one dataset
  across the architecture registry on paired PCIe buses
  (``docs/ARCHITECTURES.md``);
- ``arch list|show <id>`` — the architecture registry: named GPU
  generations with per-arch tables, paired PCIe defaults, and content
  fingerprints;
- ``artifacts <outdir>`` — regenerate everything into a directory;
- ``batch <requests.jsonl>`` — project many requests through the
  cached, parallel :mod:`repro.service` engine (JSONL in, JSONL out);
- ``cache-stats`` — inspect an on-disk projection cache directory,
  including accumulated hit rates from past batch runs;
- ``trace <skeleton>`` — run one traced projection and write the span
  tree as Chrome ``trace_event`` JSON (load in Perfetto / chrome://
  tracing) or JSONL, plus the prediction's provenance record;
- ``metrics`` — exercise the service engine on one workload and print
  its metrics snapshot (JSON, or ``--prometheus`` text exposition);
- ``version`` (also ``--version``) — package and protocol version;
- ``daemon start|status|submit|result|cancel`` — the always-on
  projection daemon: persistent job queue, checkpoint/resume for
  sweeps, rate limiting (``docs/DAEMON.md``).

See ``docs/OBSERVABILITY.md`` for the tracing/provenance/metrics tour.

Everything runs against the virtual Argonne testbed (seeded, so output is
reproducible); ``--seed`` selects a different lab day.

Errors a user can cause (unknown workload or dataset, a missing or
unparsable skeleton file) print a one-line ``error: ...`` to stderr and
exit with status 2; tracebacks are reserved for actual bugs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.core.advisor import MemoryKindAdvisor
from repro.datausage.transfers import Direction
from repro.harness import figures
from repro.harness.apps import (
    run_fig5_transfer_scatter,
    run_fig6_error_scatter,
    run_table1_measured,
)
from repro.harness.context import ExperimentContext
from repro.harness.export import export
from repro.harness.speedups import (
    run_speedup_vs_iterations,
    run_speedup_vs_size,
    run_table2_speedup_error,
)
from repro.harness.transfer_sweep import (
    run_fig2_transfer_times,
    run_fig3_pinned_speedup,
    run_fig4_model_error,
)
from repro.util.units import MiB, seconds_to_human
from repro.version import package_version
from repro.workloads.registry import all_workloads, get_workload

EXPERIMENTS = (
    "compare",
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GROPHECY++: GPU performance projection with data-transfer "
            "modeling (IPDPS'13 reproduction)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2013,
        help="virtual-testbed seed (default: 2013)",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"repro {package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    explorer = argparse.ArgumentParser(add_help=False)
    explorer.add_argument(
        "--reference-explorer", action="store_true",
        help="force the scalar reference explorer instead of the fused "
        "path (equal results; see docs/EXPLORER.md)",
    )

    sub.add_parser("list", help="list workloads and datasets")

    sub.add_parser("calibrate", help="run the 2-point bus calibration")

    p = sub.add_parser(
        "project", parents=[explorer], help="project one workload/dataset"
    )
    p.add_argument("workload", help="CFD | HotSpot | SRAD | Stassuij | VectorAdd")
    p.add_argument("--dataset", default=None, help="dataset label (default: largest)")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument(
        "--allocation", action="store_true",
        help="charge one-time memory-allocation overhead",
    )
    p.add_argument(
        "--surrogate", default=None, metavar="MODEL",
        help="serve through a trained surrogate model (.npz) with a "
        "confidence-gated exact fallback (see docs/SURROGATE.md)",
    )

    p = sub.add_parser(
        "project-file",
        parents=[explorer],
        help="project a skeleton written in the text format "
        "(see repro.skeleton.parser)",
    )
    p.add_argument("path", help="skeleton file")
    p.add_argument(
        "--cpu-ms", type=float, default=None,
        help="measured CPU time per iteration in ms (for a speedup verdict)",
    )
    p.add_argument("--iterations", type=int, default=1)

    p = sub.add_parser("advise", help="pinned vs pageable recommendation")
    p.add_argument("workload")
    p.add_argument("--dataset", default=None)
    p.add_argument("--reuses", type=int, default=1)

    p = sub.add_parser(
        "artifacts",
        help="regenerate EVERY table/figure into a directory "
        "(text + markdown + CSV + ASCII charts + summary)",
    )
    p.add_argument("outdir", help="output directory (created if missing)")
    p.add_argument("--no-charts", action="store_true")

    p = sub.add_parser("experiment", help="regenerate one paper artifact")
    p.add_argument("id", choices=EXPERIMENTS)
    p.add_argument(
        "--format", choices=("text", "markdown", "csv"), default="text"
    )
    p.add_argument(
        "--chart", action="store_true",
        help="render as an ASCII chart instead of a table (figures only)",
    )

    p = sub.add_parser(
        "sweep",
        help="parameter sweep through the parametric sweep engine "
        "(analyze once, evaluate every point; see docs/SWEEP.md)",
    )
    p.add_argument("workload", help="CFD | HotSpot | SRAD | Stassuij | VectorAdd")
    p.add_argument(
        "--axis", choices=("size", "iterations", "bus"), default="size",
        help="sweep axis: data size (default), iteration count, or "
        "PCIe bus generation",
    )
    p.add_argument(
        "--dataset", default=None,
        help="dataset label for the iterations/bus axes (default: largest)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="cross-check every sweep point against the per-point "
        "pipeline (raises on any mismatch)",
    )
    p.add_argument(
        "--argmin", action="store_true",
        help="report only the best point of the size axis (or of the "
        "--arch fleet)",
    )
    p.add_argument(
        "--arch", action="append", default=None, metavar="ID",
        help="architecture axis: a registry id (repeatable) or 'all'; "
        "scores one dataset across the fleet, each architecture on its "
        "paired PCIe-generation bus (`repro arch list` shows ids)",
    )

    p = sub.add_parser(
        "arch",
        help="the architecture registry: named GPU generations with "
        "per-arch tables and paired PCIe defaults "
        "(see docs/ARCHITECTURES.md)",
    )
    asub = p.add_subparsers(dest="arch_command", required=True)
    asub.add_parser(
        "list", help="list the registered architecture generations"
    )
    ap = asub.add_parser(
        "show", help="full parameter tables for one architecture"
    )
    ap.add_argument("arch_id", help="registry id (see `repro arch list`)")

    p = sub.add_parser(
        "batch",
        parents=[explorer],
        help="project a JSONL file of requests through the service "
        "engine (cached + parallel; see docs/SERVICE.md)",
    )
    p.add_argument("requests", help="requests file, one JSON object per line")
    p.add_argument(
        "-o", "--output", default=None,
        help="results file (default: <requests>.results.jsonl)",
    )
    p.add_argument(
        "--jobs", type=int, default=4,
        help="worker threads (default: 4)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-request timeout in seconds",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="on-disk cache directory "
        "(default: .repro-cache next to the requests file)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable result caching for this run",
    )
    p.add_argument(
        "--surrogate", default=None, metavar="MODEL",
        help="serve the batch through a trained surrogate model (.npz) "
        "with a confidence-gated exact fallback",
    )
    p.add_argument(
        "--serving-mode", choices=("auto", "surrogate", "exact"),
        default="auto",
        help="surrogate serving mode for --surrogate (default: auto)",
    )

    p = sub.add_parser(
        "surrogate",
        help="learned microsecond projections with an exact fallback "
        "(see docs/SURROGATE.md)",
    )
    ssub = p.add_subparsers(dest="surrogate_command", required=True)

    sp = ssub.add_parser(
        "train",
        help="label a size grid through the fused scorer, fit the "
        "ridge+exemplar model, calibrate, and save",
    )
    sp.add_argument(
        "-o", "--output", default="surrogate.npz",
        help="model artifact path (default: surrogate.npz)",
    )
    sp.add_argument(
        "--sizes-per-kernel", type=int, default=24,
        help="grid points per kernel (default: 24)",
    )
    sp.add_argument(
        "--target-accuracy", type=float, default=0.93,
        help="calibration accuracy target for the accept threshold "
        "(default: 0.93)",
    )
    sp.add_argument(
        "--holdout-fraction", type=float, default=0.25,
        help="rows held out of training for the printed evaluation "
        "(default: 0.25)",
    )
    sp.add_argument(
        "--split-seed", type=int, default=7,
        help="holdout split seed (default: 7)",
    )

    sp = ssub.add_parser(
        "eval",
        help="evaluate a trained model on a freshly labeled grid",
    )
    sp.add_argument("model", help="model artifact (.npz)")
    sp.add_argument(
        "--sizes-per-kernel", type=int, default=29,
        help="grid density for evaluation — pick one different from "
        "training so the sizes fall off the training grid (default: 29)",
    )

    sp = ssub.add_parser(
        "project",
        help="serve one workload/dataset through the gated surrogate",
    )
    sp.add_argument("model", help="model artifact (.npz)")
    sp.add_argument("workload", help="registry workload name")
    sp.add_argument("--dataset", default=None)
    sp.add_argument("--iterations", type=int, default=1)
    sp.add_argument(
        "--mode", choices=("auto", "surrogate", "exact"), default="auto",
        help="serving mode (default: auto — confidence-gated)",
    )

    p = sub.add_parser(
        "cache-stats", help="inspect an on-disk projection cache"
    )
    p.add_argument(
        "cache_dir", nargs="?", default=".repro-cache",
        help="cache directory (default: .repro-cache)",
    )

    p = sub.add_parser(
        "trace",
        help="project a skeleton file with tracing on and write the "
        "span tree (Chrome trace_event JSON, Perfetto-loadable)",
    )
    p.add_argument("path", help="skeleton file")
    p.add_argument(
        "-o", "--output", default=None,
        help="trace file (default: <skeleton>.trace.json)",
    )
    p.add_argument(
        "--jsonl", action="store_true",
        help="write one span per line (JSONL) instead of Chrome JSON",
    )
    p.add_argument(
        "--no-provenance", action="store_true",
        help="skip the prediction-provenance report",
    )

    p = sub.add_parser(
        "metrics",
        help="run one workload through the service engine and print "
        "its metrics (counters + stage latency percentiles)",
    )
    p.add_argument(
        "--workload", default="VectorAdd",
        help="workload to exercise (default: VectorAdd)",
    )
    p.add_argument(
        "--prometheus", action="store_true",
        help="print Prometheus text exposition instead of JSON",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the JSON snapshot explicitly (the default; "
        "mutually exclusive with --prometheus)",
    )

    sub.add_parser("version", help="print package and protocol version")

    p = sub.add_parser(
        "daemon",
        help="the always-on projection daemon (see docs/DAEMON.md)",
    )
    dsub = p.add_subparsers(dest="daemon_command", required=True)

    def _endpoint_args(dp) -> None:
        dp.add_argument(
            "--state-dir", default=".repro-daemon",
            help="daemon state directory (default: .repro-daemon)",
        )
        dp.add_argument(
            "--url", default=None,
            help="daemon URL (default: read <state-dir>/daemon.json)",
        )

    dp = dsub.add_parser(
        "start", help="run the daemon in the foreground until SIGTERM"
    )
    dp.add_argument(
        "--state-dir", default=".repro-daemon",
        help="journal/results/checkpoints directory "
        "(default: .repro-daemon)",
    )
    dp.add_argument("--host", default="127.0.0.1")
    dp.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = pick a free one)",
    )
    dp.add_argument(
        "--workers", type=int, default=2,
        help="worker threads executing jobs (default: 2)",
    )
    dp.add_argument(
        "--rate", type=float, default=None,
        help="per-client rate limit in jobs/second (default: off)",
    )
    dp.add_argument(
        "--burst", type=float, default=10.0,
        help="rate-limit burst size (default: 10)",
    )
    dp.add_argument(
        "--max-client-running", type=int, default=2,
        help="max concurrently running jobs per client (default: 2)",
    )
    dp.add_argument(
        "--drain-deadline", type=float, default=10.0,
        help="seconds to wait for in-flight jobs on shutdown "
        "(default: 10)",
    )
    dp.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk projection cache",
    )
    dp.add_argument(
        "--surrogate-model", default=None, metavar="MODEL",
        help="serve projection jobs through this trained surrogate "
        "model (.npz); jobs pick auto/surrogate/exact via the payload's "
        "'mode' field",
    )
    dp.add_argument(
        "--audit-rate", type=float, default=0.01,
        help="fraction of accepted surrogate answers to shadow-audit "
        "through the exact engine (default: 0.01; 0 disables)",
    )
    dp.add_argument(
        "--audit-min-agreement", type=float, default=0.9,
        help="top-1 agreement below which /v1/status flips to "
        "'degraded' (default: 0.9)",
    )

    dp = dsub.add_parser(
        "status", help="daemon health + human-readable job table"
    )
    _endpoint_args(dp)
    dp.add_argument(
        "--json", action="store_true",
        help="print the /v1/status body (plus jobs) as JSON",
    )

    dp = dsub.add_parser("submit", help="submit one job")
    _endpoint_args(dp)
    dp.add_argument(
        "--kind", choices=("projection", "batch", "sweep"),
        default="projection",
    )
    dp.add_argument(
        "--client", default=None,
        help="client name for rate limiting / fairness",
    )
    dp.add_argument(
        "--payload", default=None,
        help="payload file: JSON object, or JSONL request lines for "
        "--kind batch ('-' reads stdin)",
    )
    dp.add_argument(
        "--workload", default=None,
        help="build the payload from a registry workload instead",
    )
    dp.add_argument(
        "--dataset", action="append", default=None,
        help="dataset label (repeatable for --kind sweep)",
    )
    dp.add_argument(
        "--arch", action="append", default=None, metavar="ID",
        help="registry architecture id; repeatable (or 'all') for "
        "--kind sweep to cross an architecture axis with the datasets",
    )
    dp.add_argument(
        "--mode", choices=("auto", "surrogate", "exact"), default=None,
        help="serving mode for --kind projection on a daemon started "
        "with --surrogate-model",
    )
    dp.add_argument(
        "--trace", action="store_true",
        help="record worker-side spans for this job so `daemon trace` "
        "can fetch one stitched Chrome trace later",
    )
    dp.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    dp.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait timeout in seconds (default: 300)",
    )

    dp = dsub.add_parser("result", help="fetch a finished job's result")
    _endpoint_args(dp)
    dp.add_argument("job_id")
    dp.add_argument(
        "-o", "--output", default=None,
        help="also write the full result document to this JSON file",
    )
    dp.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    dp.add_argument(
        "--timeout", type=float, default=300.0,
        help="--wait timeout in seconds (default: 300)",
    )

    dp = dsub.add_parser("cancel", help="cancel a queued or running job")
    _endpoint_args(dp)
    dp.add_argument("job_id")

    dp = dsub.add_parser(
        "trace",
        help="fetch a traced job's stitched Chrome trace document",
    )
    _endpoint_args(dp)
    dp.add_argument("job_id")
    dp.add_argument(
        "-o", "--output", default=None,
        help="write the trace JSON here instead of stdout "
        "(open it in chrome://tracing or Perfetto)",
    )

    dp = dsub.add_parser(
        "tail", help="show the daemon's structured event log"
    )
    _endpoint_args(dp)
    dp.add_argument(
        "-n", "--lines", type=int, default=20,
        help="events to show initially (default: 20)",
    )
    dp.add_argument(
        "--follow", action="store_true",
        help="keep polling for new events until interrupted",
    )
    dp.add_argument(
        "--json", action="store_true",
        help="print one JSON object per event instead of text",
    )
    dp.add_argument(
        "--poll", type=float, default=1.0,
        help="--follow poll interval in seconds (default: 1)",
    )
    return parser


def _pick_dataset(workload, label):
    if label is None:
        return max(workload.datasets(), key=lambda d: d.size)
    return workload.dataset(label)


def _cmd_list(args, out: Callable[[str], None]) -> int:
    for workload in all_workloads():
        datasets = ", ".join(d.label for d in workload.datasets())
        out(f"{workload.name}: {workload.description}")
        out(f"  datasets: {datasets}")
    return 0


def _cmd_calibrate(args, out) -> int:
    ctx = ExperimentContext(seed=args.seed)
    out("2-point PCIe calibration (1B and 512MB, 10 runs each):")
    out(f"  host->device: {ctx.bus_model.h2d}")
    out(f"  device->host: {ctx.bus_model.d2h}")
    return 0


def _explorer_choice(args) -> str:
    """The explorer path the ``--reference-explorer`` flag selects."""
    return "reference" if args.reference_explorer else "fast"


def _surrogate_serving(model_path, seed):
    """(SurrogateEngine, exact ProjectionEngine) for a saved model."""
    from repro.gpu.arch import quadro_fx_5600
    from repro.service.engine import ProjectionEngine
    from repro.surrogate import SurrogateEngine, load_model

    ctx = ExperimentContext(seed=seed)
    engine = ProjectionEngine(arch=quadro_fx_5600(), bus=ctx.bus_model)
    model = load_model(model_path, engine.arch, engine.space)
    return SurrogateEngine(model, engine), engine


def _print_surrogate_response(resp, out) -> None:
    """Render one SurrogateResponse for project/surrogate-project."""
    serving = resp.provenance
    line = f"  path: {serving.path} ({serving.reason})"
    if serving.confidence is not None:
        line += f", confidence {serving.confidence:.1%}"
    out(line)
    if resp.estimate is not None:
        est = resp.estimate
        out("  kernels: " + ", ".join(
            f"{name}={label}" for name, label in est.mappings
        ))
        out(f"  predicted kernel time/iter: "
            f"{seconds_to_human(est.kernel_seconds)} "
            f"(x/{_band_factor(est.log_band)} conformal band)")
        out(f"  predicted transfer time:    "
            f"{seconds_to_human(est.transfer_seconds)}")
        out(f"  predicted total:            "
            f"{seconds_to_human(resp.total_seconds)} "
            f"for {resp.iterations} iteration(s)")
    else:
        summary = resp.response.summary
        out("  kernels: " + ", ".join(
            f"{k.name}={k.best_mapping}" for k in summary.kernels
        ))
        out(f"  projected kernel time/iter: "
            f"{seconds_to_human(summary.kernel_seconds)}")
        out(f"  projected transfer time:    "
            f"{seconds_to_human(summary.transfer_seconds)}")
        out(f"  projected total:            "
            f"{seconds_to_human(resp.total_seconds)} "
            f"for {resp.iterations} iteration(s)")
    out(f"  served in {seconds_to_human(resp.seconds)}")


def _band_factor(log_band: float) -> str:
    """The conformal band in multiplicative form, e.g. ``1.03``."""
    import math

    return f"{math.exp(log_band):.2f}"


def _serve_one_surrogate(model_path, args, out, mode: str) -> int:
    """Shared by ``project --surrogate`` and ``surrogate project``."""
    from repro.service.engine import ProjectionRequest

    serving, _engine = _surrogate_serving(model_path, args.seed)
    try:
        workload = get_workload(args.workload)
        dataset = _pick_dataset(workload, args.dataset)
        request = ProjectionRequest(
            program=workload.skeleton(dataset),
            hints=workload.hints(dataset),
            iterations=args.iterations,
            request_id=f"{workload.name}/{dataset.label}",
        )
        resp = serving.project(request, mode)
        out(f"{workload.name} / {dataset.label}  "
            f"({args.iterations} iteration(s))")
        _print_surrogate_response(resp, out)
    finally:
        serving.close()
    return 0


def _cmd_project(args, out) -> int:
    if args.surrogate is not None:
        return _serve_one_surrogate(args.surrogate, args, out, "auto")
    explorer = _explorer_choice(args)
    ctx = ExperimentContext(seed=args.seed, explorer=explorer)
    workload = get_workload(args.workload)
    dataset = _pick_dataset(workload, args.dataset)
    if args.allocation:
        from repro.core.projector import GrophecyPlusPlus
        from repro.gpu.arch import quadro_fx_5600
        from repro.pcie.allocation import cuda23_era_allocation_model

        projector = GrophecyPlusPlus(
            quadro_fx_5600(),
            ctx.bus_model,
            allocation=cuda23_era_allocation_model(),
            explorer=explorer,
        )
        projection = projector.project(
            workload.skeleton(dataset), workload.hints(dataset)
        )
    else:
        projection = ctx.projection(workload, dataset)
    measured = ctx.measured(workload, dataset)
    n = args.iterations

    out(f"{workload.name} / {dataset.label}  ({n} iteration(s))")
    out(f"  kernels: "
        + ", ".join(
            f"{k.kernel}={k.best.config.label()}"
            for k in projection.kernels.kernels
        ))
    out(f"  projected kernel time/iter: "
        f"{seconds_to_human(projection.kernel_seconds)}")
    out(f"  projected transfer time:    "
        f"{seconds_to_human(projection.transfer_seconds)} "
        f"({projection.plan.total_bytes / MiB:.1f} MB, "
        f"{projection.plan.transfer_count} transfers)")
    if projection.setup_seconds:
        out(f"  projected allocation time:  "
            f"{seconds_to_human(projection.setup_seconds)}")
    out(f"  projected total:            "
        f"{seconds_to_human(projection.total_seconds(n))}")
    out(f"  measured CPU time/iter:     "
        f"{seconds_to_human(measured.cpu_seconds)}")
    speedup = projection.speedup(measured.cpu_seconds, n)
    kernel_only = projection.speedup(
        measured.cpu_seconds, n, include_transfer=False
    )
    out(f"  projected speedup:          {speedup:.2f}x "
        f"(kernel-only would claim {kernel_only:.2f}x)")
    verdict = "worth porting" if speedup > 1 else "NOT worth porting"
    out(f"  verdict at {n} iteration(s): {verdict}")
    return 0


def _cmd_project_file(args, out) -> int:
    from repro.skeleton.parser import parse_skeleton_file

    explorer = _explorer_choice(args)
    ctx = ExperimentContext(seed=args.seed, explorer=explorer)
    program = parse_skeleton_file(args.path)
    projection = ctx.projector.project(program)
    n = args.iterations
    out(f"{program.name}  ({len(program.kernels)} kernel(s), "
        f"{len(program.arrays)} array(s))")
    for kp in projection.kernels.kernels:
        out(f"  {kp.kernel}: best {kp.best.config.label()} -> "
            f"{seconds_to_human(kp.seconds)} "
            f"({kp.best.breakdown.regime})")
    out(f"  transfer: {seconds_to_human(projection.transfer_seconds)} "
        f"({projection.plan.total_bytes / MiB:.2f} MB, "
        f"{projection.plan.transfer_count} transfers)")
    out(f"  total for {n} iteration(s): "
        f"{seconds_to_human(projection.total_seconds(n))}")
    if args.cpu_ms is not None:
        cpu = args.cpu_ms * 1e-3
        speedup = projection.speedup(cpu, n)
        out(f"  projected speedup vs your CPU time: {speedup:.2f}x "
            f"({'worth porting' if speedup > 1 else 'NOT worth porting'})")
    return 0


def _cmd_advise(args, out) -> int:
    ctx = ExperimentContext(seed=args.seed)
    workload = get_workload(args.workload)
    dataset = _pick_dataset(workload, args.dataset)
    plan = ctx.projection(workload, dataset).plan
    advice = MemoryKindAdvisor(ctx.testbed.bus).advise(plan, args.reuses)
    out(str(advice))
    out(f"  pinned:   setup {seconds_to_human(advice.pinned_setup_seconds)}"
        f" + {seconds_to_human(advice.pinned_transfer_seconds)}/use")
    out(f"  pageable: setup "
        f"{seconds_to_human(advice.pageable_setup_seconds)}"
        f" + {seconds_to_human(advice.pageable_transfer_seconds)}/use")
    if advice.breakeven_reuses is not None:
        out(f"  pinned pays off from {advice.breakeven_reuses} reuse(s)")
    return 0


def _cmd_artifacts(args, out) -> int:
    from repro.harness.artifacts import write_all_artifacts

    ctx = ExperimentContext(seed=args.seed)
    paths = write_all_artifacts(
        ctx, args.outdir, charts=not args.no_charts
    )
    out(f"wrote {len(paths)} artifacts to {args.outdir}")
    out(f"summary: {paths[-1]}")
    return 0


def _cmd_experiment(args, out) -> int:
    ctx = ExperimentContext(seed=args.seed)
    exp = args.id
    if exp == "compare":
        from repro.harness.comparison import compare_with_paper

        result = compare_with_paper(ctx)
        if args.format == "text":
            out(result.render())
            return 0
    elif exp == "table1":
        result = run_table1_measured(ctx)
    elif exp == "table2":
        result = run_table2_speedup_error(ctx)
    elif exp == "fig2":
        result = run_fig2_transfer_times(ctx, Direction.H2D)
        if args.chart:
            out(figures.fig2_chart(result))
            return 0
    elif exp == "fig3":
        result = run_fig3_pinned_speedup(ctx)
        if args.chart:
            out(figures.fig3_chart(result))
            return 0
    elif exp == "fig4":
        result = run_fig4_model_error(ctx)
        if args.chart:
            out(figures.fig4_chart(result))
            return 0
    elif exp == "fig5":
        result = run_fig5_transfer_scatter(ctx)
        if args.chart:
            out(figures.fig5_chart(result))
            return 0
    elif exp == "fig6":
        result = run_fig6_error_scatter(ctx)
        if args.chart:
            out(figures.fig6_chart(result))
            return 0
    elif exp in ("fig7", "fig9", "fig11"):
        name = {"fig7": "CFD", "fig9": "HotSpot", "fig11": "SRAD"}[exp]
        result = run_speedup_vs_size(ctx, get_workload(name))
        if args.chart:
            out(figures.speedup_vs_size_chart(result))
            return 0
    else:  # fig8 / fig10 / fig12
        name = {"fig8": "CFD", "fig10": "HotSpot", "fig12": "SRAD"}[exp]
        result = run_speedup_vs_iterations(ctx, get_workload(name))
        if args.chart:
            out(figures.speedup_vs_iterations_chart(result))
            return 0
    if args.chart:
        out(f"note: no chart form for {exp}; printing the table")
    out(export(result, args.format))
    return 0


def _cmd_arch(args, out) -> int:
    from repro.gpu.registry import all_specs, get_spec

    if args.arch_command == "list":
        out(
            "architecture registry, chronological "
            "(see docs/ARCHITECTURES.md):"
        )
        for spec in all_specs():
            tag = "calibrated" if spec.calibrated else "nominal"
            out(
                f"  {spec.id}: {spec.display_name} — {spec.generation}, "
                f"CC {spec.compute_capability}, {spec.year}, "
                f"{spec.geometry.num_sms} SMs @ "
                f"{spec.geometry.clock_ghz}GHz, "
                f"{spec.memory.sustained_bandwidth / 1e9:.0f}GB/s "
                f"sustained, PCIe gen {spec.pcie_gen} [{tag}]"
            )
        return 0
    # arch_command == "show"
    spec = get_spec(args.arch_id.lower())
    geometry, memory, latencies = spec.geometry, spec.memory, spec.latencies
    out(
        f"{spec.id}: {spec.display_name} ({spec.generation}, {spec.chip}, "
        f"CC {spec.compute_capability}, {spec.year})"
    )
    out(
        "  calibration: "
        + (
            "published measurements (paper testbed / ISCA'09 Table 3)"
            if spec.calibrated
            else "nominal datasheet figures — what-if trends only"
        )
    )
    out(f"  paired bus: PCIe gen {spec.pcie_gen}")
    out(
        f"  geometry: {geometry.num_sms} SMs @ {geometry.clock_ghz}GHz, "
        f"warp {geometry.warp_size}, per SM "
        f"{geometry.max_threads_per_sm} threads / "
        f"{geometry.max_warps_per_sm} warps / "
        f"{geometry.max_blocks_per_sm} blocks, "
        f"{geometry.registers_per_sm} registers, "
        f"{geometry.shared_mem_per_sm // 1024}KiB shared"
    )
    out(
        f"  memory: {memory.dram}, "
        f"{memory.sustained_bandwidth / 1e9:.1f}GB/s sustained of "
        f"{memory.theoretical_bandwidth / 1e9:.1f} theoretical, "
        f"latency {memory.mem_latency_cycles:.0f} cycles, L2 "
        + (
            f"{memory.l2_bytes // 1024}KiB"
            if memory.l2_bytes
            else "none (texture-only caching)"
        )
        + f", coalescing {'strict' if memory.strict_coalescing else 'relaxed'}"
    )
    out(
        f"  latencies: issue {latencies.issue_cycles:g}, departure "
        f"{latencies.departure_del_coal:g} coal / "
        f"{latencies.departure_del_uncoal:g} uncoal, sync "
        f"{latencies.sync_cycles:g} cycles"
    )
    if spec.notes:
        out(f"  notes: {spec.notes}")
    out(f"  fingerprint: {spec.fingerprint()}")
    return 0


def _sweep_arch_axis(args, ctx, workload, engine, out) -> int:
    from repro.gpu.registry import arch_ids, get_spec

    if args.axis != "size":
        raise ValueError(
            "--arch is its own sweep axis; drop --axis"
        )
    requested: list[str] = []
    for item in args.arch:
        if item.lower() == "all":
            requested.extend(arch_ids())
        else:
            requested.append(item.lower())
    seen: set[str] = set()
    ids = [a for a in requested if not (a in seen or seen.add(a))]
    dataset = _pick_dataset(workload, args.dataset)
    program = workload.skeleton(dataset)
    hints = workload.hints(dataset)
    cpu = ctx.measured(workload, dataset).cpu_seconds

    if args.argmin:
        best = engine.argmin_arches(program, ids, hints=hints, buses="paired")
        spec = get_spec(best.point.arch_id)
        out(
            f"{workload.name} / {dataset.label}: best of "
            f"{len(ids)} architecture(s)"
        )
        out(
            f"  best: {spec.id} ({spec.display_name}, PCIe gen "
            f"{spec.pcie_gen}) -> {seconds_to_human(best.seconds)}  ->  "
            f"{best.point.projection.speedup(cpu, 1):.2f}x"
        )
        return 0

    points = engine.sweep_arches(
        program, ids, hints=hints, buses="paired", check=args.check
    )
    header = (
        f"{workload.name} / {dataset.label}: what-if across "
        f"{len(points)} architecture(s), paired PCIe buses"
    )
    if args.check:
        header += "  [every point checked against the per-arch pipeline]"
    out(header)
    best_index = min(range(len(points)), key=lambda i: points[i].seconds)
    worth_marked = False
    for index, point in enumerate(points):
        spec = get_spec(point.arch_id)
        speedup = point.projection.speedup(cpu, 1)
        marks = []
        if speedup > 1.0 and not worth_marked:
            worth_marked = True
            marks.append("first worth porting")
        if index == best_index:
            marks.append("best")
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        out(
            f"  {point.arch_id} (PCIe gen {spec.pcie_gen}): kernel "
            f"{seconds_to_human(point.projection.kernel_seconds)} + "
            f"transfer "
            f"{seconds_to_human(point.projection.transfer_seconds)} = "
            f"{seconds_to_human(point.seconds)}  ->  {speedup:.2f}x{suffix}"
        )
    stats = engine.stats
    out(
        f"  served: 1 transfer plan re-priced per architecture, kernel "
        f"grids shared across {stats['groups_shared']}/"
        f"{stats['coalescing_groups']} coalescing group(s)"
    )
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.pcie.presets import bus_for_generation

    ctx = ExperimentContext(seed=args.seed)
    workload = get_workload(args.workload)
    engine = ctx.sweep_engine

    if args.arch:
        return _sweep_arch_axis(args, ctx, workload, engine, out)

    if args.argmin:
        if args.axis != "size":
            raise ValueError("--argmin only applies to --axis size")
        datasets = list(workload.datasets())
        result = engine.argmin_workload(workload)
        out(f"{workload.name}: best of {len(datasets)} size point(s)")
        out(
            f"  best: {datasets[result.index].label} -> "
            f"{seconds_to_human(result.seconds)}"
        )
        return 0

    if args.axis == "size":
        datasets = list(workload.datasets())
        projections = engine.sweep_workload(workload, check=args.check)
        header = f"{workload.name}: size sweep, {len(datasets)} point(s)"
        if args.check:
            header += "  [every point checked against the per-point pipeline]"
        out(header)
        for dataset, projection in zip(datasets, projections):
            cpu = ctx.measured(workload, dataset).cpu_seconds
            speedup = projection.speedup(cpu, 1)
            out(
                f"  {dataset.label}: kernel "
                f"{seconds_to_human(projection.kernel_seconds)}"
                f" + transfer "
                f"{seconds_to_human(projection.transfer_seconds)}"
                f" = {seconds_to_human(projection.total_seconds(1))}"
                f"  ->  {speedup:.2f}x"
            )
        stats = engine.stats
        shared = stats["groups_shared"]
        out(
            f"  served: kernel structure "
            f"{'shared across the sweep' if shared else 'computed per point'}, "
            f"{stats['plans_from_template']} plan(s) from template, "
            f"{stats['points'] - stats['plans_from_template']} exact"
        )
        return 0

    if args.axis == "iterations":
        dataset = (
            workload.dataset(args.dataset)
            if args.dataset is not None
            else None
        )
        result = run_speedup_vs_iterations(ctx, workload, dataset=dataset)
        out(result.render())
        return 0

    # axis == "bus": re-price one dataset's fixed transfer plan.
    dataset = _pick_dataset(workload, args.dataset)
    projection = ctx.projection(workload, dataset)
    cpu = ctx.measured(workload, dataset).cpu_seconds
    generations = (1, 2, 3)
    points = engine.sweep_buses(
        projection.plan, [bus_for_generation(g) for g in generations]
    )
    out(
        f"{workload.name} / {dataset.label}: what-if across PCIe "
        f"generations (fixed transfer plan, "
        f"{projection.plan.transfer_count} transfers)"
    )
    for generation, point in zip(generations, points):
        total = projection.kernel_seconds + point.transfer_seconds
        out(
            f"  PCIe gen {generation}: transfer "
            f"{seconds_to_human(point.transfer_seconds)}, total "
            f"{seconds_to_human(total)}  ->  {cpu / total:.2f}x"
        )
    return 0


def _cmd_batch(args, out) -> int:
    from pathlib import Path

    from repro.gpu.arch import quadro_fx_5600
    from repro.service.cache import ProjectionCache
    from repro.service.engine import ProjectionEngine
    from repro.service.jobs import run_batch

    requests_path = Path(args.requests)
    if not requests_path.is_file():
        raise FileNotFoundError(f"no such requests file: {requests_path}")
    ctx = ExperimentContext(seed=args.seed)
    cache = None
    if not args.no_cache:
        cache_dir = (
            Path(args.cache_dir)
            if args.cache_dir is not None
            else requests_path.resolve().parent / ".repro-cache"
        )
        cache = ProjectionCache(disk_dir=cache_dir)
    engine = ProjectionEngine(
        arch=quadro_fx_5600(),
        bus=ctx.bus_model,
        cache=cache,
        max_workers=max(1, args.jobs),
        explorer=_explorer_choice(args),
    )
    batch_engine = engine
    if args.surrogate is not None:
        from repro.surrogate import SurrogateEngine, load_model
        from repro.surrogate.engine import SurrogateBatchAdapter

        model = load_model(args.surrogate, engine.arch, engine.space)
        batch_engine = SurrogateBatchAdapter(
            SurrogateEngine(model, engine), mode=args.serving_mode
        )
    result = run_batch(
        requests_path,
        output_path=args.output,
        engine=batch_engine,
        max_workers=max(1, args.jobs),
        timeout=args.timeout,
    )
    out(result.report())
    out(engine.metrics.report())
    if cache is not None:
        from repro.service.cache import record_run_meta

        stats = cache.stats()
        kernel_stats = (
            engine.kernel_cache.stats()
            if engine.kernel_cache is not None
            else None
        )
        out(
            f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es)"
            f"{_rate_suffix(stats['hit_rate'])}, "
            f"{stats['disk']['entries']} entr(ies) on disk at "
            f"{stats['disk']['path']}"
        )
        if kernel_stats is not None:
            out(
                f"kernel cache: {kernel_stats['hits']} hit(s), "
                f"{kernel_stats['misses']} miss(es)"
                f"{_rate_suffix(kernel_stats['hit_rate'])}"
            )
        record_run_meta(cache.disk_dir, stats, kernel_stats)
    return 0


def _rate_suffix(rate: float | None) -> str:
    """`` (NN.N% hit rate)`` or empty when nothing was looked up."""
    if rate is None:
        return ""
    return f" ({rate:.1%} hit rate)"


def _format_metric(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _cmd_surrogate(args, out) -> int:
    from repro.gpu.arch import quadro_fx_5600
    from repro.surrogate import (
        evaluate_model,
        generate_training_set,
        load_model,
        save_model,
        train_surrogate,
    )
    from repro.surrogate.dataset import split_rows
    from repro.transform.space import TransformationSpace

    verb = args.surrogate_command
    arch = quadro_fx_5600()
    space = TransformationSpace.default()

    if verb == "train":
        training = generate_training_set(
            arch, space, sizes_per_kernel=args.sizes_per_kernel
        )
        hold_idx, train_idx = split_rows(
            training.rows, (args.holdout_fraction,), seed=args.split_seed
        )
        model = train_surrogate(
            training.subset(train_idx),
            arch,
            space,
            target_accuracy=args.target_accuracy,
        )
        report = evaluate_model(model, training.subset(hold_idx))
        path = save_model(model, args.output)
        stats = model.stats
        out(f"trained on {stats['fit_rows']} rows "
            f"({stats['kernels']} kernels, {stats['classes']} mapping "
            f"classes), calibrated on {stats['calibration_rows']}")
        out(f"  accept threshold {model.threshold:.4f} "
            f"(target accuracy {model.target_accuracy:.0%})")
        out("  holdout: " + ", ".join(
            f"{key}={_format_metric(report[key])}"
            for key in (
                "acceptance_rate",
                "accepted_top1_agreement",
                "top1_agreement",
                "log_mae",
            )
        ))
        out(f"saved model to {path}")
        return 0

    if verb == "eval":
        model = load_model(args.model, arch, space)
        grid = generate_training_set(
            arch, space, sizes_per_kernel=args.sizes_per_kernel
        )
        report = evaluate_model(model, grid)
        out(f"evaluated {report['rows']} rows "
            f"(grid density {args.sizes_per_kernel}/kernel):")
        for key in (
            "acceptance_rate",
            "accepted_top1_agreement",
            "top1_agreement",
            "accepted_log_mae",
            "log_mae",
            "threshold",
            "conformal_log_band",
        ):
            out(f"  {key}: {_format_metric(report[key])}")
        return 0

    # verb == "project"
    return _serve_one_surrogate(args.model, args, out, args.mode)


def _cmd_cache_stats(args, out) -> int:
    from repro.service.cache import (
        disk_cache_stats,
        hit_rate,
        read_run_meta,
    )
    from repro.util.units import bytes_to_human

    stats = disk_cache_stats(args.cache_dir)
    out(f"projection cache at {stats['path']}:")
    out(
        f"  {stats['entries']} entr(ies), "
        f"{bytes_to_human(stats['total_bytes'])}"
    )
    meta = read_run_meta(args.cache_dir)
    if meta is not None:
        for label, counters in (
            ("projection", meta["projection"]),
            ("kernel", meta["kernel"]),
        ):
            rate = hit_rate(counters["hits"], counters["misses"])
            rendered = "n/a (no lookups)" if rate is None else f"{rate:.1%}"
            out(
                f"  {label} hit rate: {rendered} "
                f"({counters['hits']} hit(s), {counters['misses']} "
                f"miss(es) over {meta['runs']} run(s))"
            )
    if stats["entries"] == 0:
        out("  (run `python -m repro batch <requests.jsonl>` to populate)")
    return 0


def _cmd_trace(args, out) -> int:
    from pathlib import Path

    from repro.obs.provenance import build_provenance
    from repro.obs.trace import Tracer, tracing
    from repro.skeleton.parser import parse_skeleton_file

    ctx = ExperimentContext(seed=args.seed)
    program = parse_skeleton_file(args.path)
    tracer = Tracer()
    with tracing(tracer):
        projection = ctx.projector.project(program)
    default_suffix = ".trace.jsonl" if args.jsonl else ".trace.json"
    target = Path(
        args.output
        if args.output is not None
        else Path(args.path).with_suffix(default_suffix)
    )
    if args.jsonl:
        tracer.write_jsonl(target)
    else:
        tracer.write_chrome_trace(target)
    out(f"{program.name}: {len(tracer)} span(s) -> {target}")
    for span in tracer.spans():
        if span.parent_id is None:
            out(
                f"  {span.name}: {seconds_to_human(span.duration)} "
                f"({sum(1 for s in tracer.spans() if s.parent_id == span.span_id)} "
                f"child span(s))"
            )
    if not args.no_provenance:
        out(build_provenance(projection, ctx.bus_model).explain())
    return 0


def _cmd_metrics(args, out) -> int:
    import json

    from repro.gpu.arch import quadro_fx_5600
    from repro.service.cache import ProjectionCache
    from repro.service.engine import ProjectionEngine, ProjectionRequest
    from repro.service.jobs import BadRequestError

    ctx = ExperimentContext(seed=args.seed)
    workload = get_workload(args.workload)
    engine = ProjectionEngine(
        arch=quadro_fx_5600(),
        bus=ctx.bus_model,
        cache=ProjectionCache(),
        provenance=True,
    )
    datasets = list(workload.datasets())
    # Every dataset once, then the first again: the replay exercises the
    # cache-hit path so hit counters and lookup timers are non-trivial.
    for dataset in datasets + datasets[:1]:
        engine.project(
            ProjectionRequest(
                program=workload.skeleton(dataset),
                hints=workload.hints(dataset),
            )
        )
    if args.prometheus and args.json:
        raise BadRequestError(
            "--prometheus and --json are mutually exclusive",
            field="--json",
            hint="pick one output format",
        )
    if args.prometheus:
        out(engine.metrics.to_prometheus())
    else:
        # --json is the explicit spelling of the default: the same
        # snapshot document the daemon embeds in its HTTP bodies.
        out(
            json.dumps(
                engine.metrics.snapshot(), indent=2, sort_keys=True
            )
        )
    return 0


def _cmd_version(args, out) -> int:
    from repro.daemon.protocol import PROTOCOL_VERSION

    out(f"repro {package_version()} (daemon protocol {PROTOCOL_VERSION})")
    return 0


def _daemon_client(args):
    from repro.daemon.client import DaemonClient

    if args.url is not None:
        return DaemonClient(base_url=args.url)
    return DaemonClient(state_dir=args.state_dir)


def _daemon_payload(args) -> dict:
    """Build the job payload from --payload or the workload flags."""
    import json
    from pathlib import Path

    from repro.service.jobs import BadRequestError

    if args.payload is not None:
        text = (
            sys.stdin.read()
            if args.payload == "-"
            else Path(args.payload).read_text(encoding="utf-8")
        )
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            if args.kind != "batch":
                raise BadRequestError(
                    f"{args.payload} is not a JSON object",
                    field="payload",
                    hint="JSONL payloads are for --kind batch",
                ) from None
            data = [
                json.loads(line)
                for line in text.splitlines()
                if line.strip()
            ]
        if args.kind == "batch" and isinstance(data, list):
            return {"requests": data}
        if not isinstance(data, dict):
            raise BadRequestError(
                "payload must be a JSON object",
                field="payload",
                hint="see docs/DAEMON.md for the payload shapes",
            )
        if getattr(args, "mode", None) and args.kind == "projection":
            data.setdefault("mode", args.mode)
        return data
    if args.workload is None:
        raise BadRequestError(
            "need --payload or --workload to build a job",
            field="payload",
            hint="e.g. `daemon submit --workload VectorAdd`",
        )
    payload: dict = {"workload": args.workload}
    arches = getattr(args, "arch", None)
    if args.kind == "sweep":
        if args.dataset:
            payload["datasets"] = args.dataset
        if arches:
            payload["arches"] = (
                "all"
                if any(a.lower() == "all" for a in arches)
                else [a.lower() for a in arches]
            )
        return payload
    if args.kind == "batch":
        raise BadRequestError(
            "batch submissions need --payload",
            field="payload",
            hint="a JSONL requests file, like `python -m repro batch`",
        )
    if args.dataset:
        payload["dataset"] = args.dataset[0]
    if arches:
        payload["arch"] = arches[0].lower()
    if getattr(args, "mode", None):
        payload["mode"] = args.mode
    return payload


def _print_result_body(body: dict, out, output: str | None) -> None:
    """Render a terminal job's result the way ``batch`` reports runs."""
    import json
    from pathlib import Path

    from repro.service.jobs import summary_lines

    out(f"job {body['id']}: {body['state']}")
    error = body.get("error")
    if isinstance(error, dict):
        out(f"  error: {error.get('error', 'unknown failure')}")
        if error.get("field"):
            out(f"  field: {error['field']}")
        if error.get("hint"):
            out(f"  hint:  {error['hint']}")
    result = body.get("result")
    if isinstance(result, dict):
        summary = result.get("summary")
        if isinstance(summary, dict):
            for line in summary_lines(
                summary.get("total", 0),
                summary.get("ok", 0),
                summary.get("errors", 0),
                summary.get("cache_hits", 0),
                summary.get("p95_seconds"),
            ):
                out(line)
        record = result.get("record")
        if isinstance(record, dict) and record.get("ok"):
            out(
                f"  projected total: "
                f"{seconds_to_human(record.get('total_seconds', 0.0))}"
            )
    if output is not None and result is not None:
        target = Path(output)
        target.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        out(f"  result document -> {target}")


def _cmd_daemon(args, out) -> int:
    verb = args.daemon_command
    if verb == "start":
        from repro.daemon.server import run_daemon

        return run_daemon(
            args.state_dir,
            host=args.host,
            port=args.port,
            out=out,
            seed=args.seed,
            workers=args.workers,
            rate=args.rate,
            burst=args.burst,
            max_client_running=args.max_client_running,
            drain_deadline=args.drain_deadline,
            use_cache=not args.no_cache,
            surrogate_model=args.surrogate_model,
            audit_rate=args.audit_rate,
            audit_min_agreement=args.audit_min_agreement,
        )

    client = _daemon_client(args)
    if verb == "status":
        status = client.status()
        if args.json:
            import json

            status["jobs"] = client.jobs()
            out(json.dumps(status, indent=2, sort_keys=True))
            return 0
        limiter = "on" if status["rate_limited"] else "off"
        out(
            f"repro daemon v{status['version']} at {client.base_url} "
            f"(pid {status['pid']}, up {status['uptime_seconds']:.1f}s)"
        )
        out(
            f"  workers {status['workers']}, rate limit {limiter}, "
            f"surrogate {'on' if status.get('surrogate') else 'off'}, "
            f"draining {'yes' if status['draining'] else 'no'}, "
            f"health {status.get('health', 'ok')}, "
            f"state {status['state_dir']}"
        )
        audit = status.get("audit")
        if isinstance(audit, dict):
            agreement = audit.get("agreement")
            out(
                "  shadow audit: "
                f"{audit.get('audits', 0)} audits, "
                f"{audit.get('disagreements', 0)} disagreements, "
                "agreement "
                + (
                    "n/a"
                    if agreement is None
                    else f"{agreement:.3f}"
                )
            )
        counts = status["queue"]
        out(
            "  queue: "
            + ", ".join(f"{counts[s]} {s}" for s in counts)
        )
        jobs = client.jobs()
        if jobs:
            out(f"  {'id':<14}{'kind':<12}{'state':<11}"
                f"{'client':<12}{'wait':>8}{'run':>8}")
            for job in jobs:
                wait = job.get("queue_wait_seconds")
                run = job.get("run_seconds")
                out(
                    f"  {job['id']:<14}{job['kind']:<12}"
                    f"{job['state']:<11}{job['client']:<12}"
                    f"{'' if wait is None else f'{wait:.2f}s':>8}"
                    f"{'' if run is None else f'{run:.2f}s':>8}"
                )
        return 0
    if verb == "submit":
        payload = _daemon_payload(args)
        submitted = client.submit(
            args.kind, payload, client=args.client, trace=args.trace
        )
        traced = " traced" if args.trace else ""
        out(
            f"submitted{traced} {args.kind} job {submitted['id']} "
            f"(position {submitted['position']})"
        )
        if args.wait:
            body = client.wait(submitted["id"], timeout=args.timeout)
            _print_result_body(body, out, None)
            return 0 if body["state"] == "done" else 1
        return 0
    if verb == "result":
        body = (
            client.wait(args.job_id, timeout=args.timeout)
            if args.wait
            else client.result(args.job_id)
        )
        _print_result_body(body, out, args.output)
        return 0 if body["state"] == "done" else 1
    if verb == "trace":
        import json
        from pathlib import Path

        document = client.trace(args.job_id)
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.output is not None:
            target = Path(args.output)
            target.write_text(text + "\n", encoding="utf-8")
            events = document.get("traceEvents", [])
            out(
                f"trace for job {args.job_id} "
                f"({len(events)} events) -> {target}"
            )
        else:
            out(text)
        return 0
    if verb == "tail":
        return _daemon_tail(args, client, out)
    # verb == "cancel"
    job = client.cancel(args.job_id)
    out(f"job {job['id']}: {job['state']}")
    return 0


def _format_event(event: dict) -> str:
    """One human-readable event-log line for ``daemon tail``."""
    import time as _time

    stamp = _time.strftime(
        "%H:%M:%S", _time.localtime(event.get("at", 0.0))
    )
    parts = [stamp, f"{event.get('type', '?'):<18}"]
    if event.get("job_id"):
        parts.append(f"job={event['job_id']}")
    if event.get("client"):
        parts.append(f"client={event['client']}")
    if event.get("trace_id"):
        parts.append(f"trace={event['trace_id'][:12]}")
    for key, value in sorted(event.get("attrs", {}).items()):
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _daemon_tail(args, client, out) -> int:
    """``daemon tail``: print the event ring, optionally following."""
    import json
    import time as _time

    def render(event: dict) -> None:
        if args.json:
            out(json.dumps(event, sort_keys=True))
        else:
            out(_format_event(event))

    body = client.events(after=0, limit=max(1, args.lines))
    # The ring may hold more than -n events; show only the newest.
    for event in body["events"][-max(1, args.lines):]:
        render(event)
    last_seq = body["last_seq"]
    if not args.follow:
        return 0
    try:
        while True:
            _time.sleep(max(0.05, args.poll))
            body = client.events(after=last_seq, limit=500)
            for event in body["events"]:
                render(event)
            last_seq = max(last_seq, body["last_seq"])
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


_COMMANDS = {
    "list": _cmd_list,
    "calibrate": _cmd_calibrate,
    "project": _cmd_project,
    "project-file": _cmd_project_file,
    "advise": _cmd_advise,
    "artifacts": _cmd_artifacts,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "arch": _cmd_arch,
    "batch": _cmd_batch,
    "surrogate": _cmd_surrogate,
    "cache-stats": _cmd_cache_stats,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "version": _cmd_version,
    "daemon": _cmd_daemon,
}


def _error_line(exc: Exception) -> str:
    """One line of human-readable cause, no traceback."""
    if isinstance(exc, OSError) and exc.filename:
        reason = exc.strerror or type(exc).__name__
        return f"{reason}: {exc.filename}"
    message = str(exc.args[0]) if exc.args else str(exc)
    return message.splitlines()[0] if message else type(exc).__name__


def main(argv: Sequence[str] | None = None, out=print, err=None) -> int:
    """CLI entry point; returns a process exit code.

    User-caused failures (unknown workload/dataset, missing or
    unparsable skeleton files) are reported as a single ``error: ...``
    line on stderr (or via ``err``) with exit status 2.
    """
    from repro.gpu.registry import UnknownArchitectureError
    from repro.service.jobs import BadRequestError

    if err is None:
        err = lambda s: print(s, file=sys.stderr)  # noqa: E731
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except BadRequestError as exc:
        _emit_structured(exc.to_dict(), err)
        return 2
    except UnknownArchitectureError as exc:
        # Same {error, field, hint} contract as a bad batch/daemon
        # record, whichever surface the id came through.
        _emit_structured(
            {"error": str(exc), "field": "arch", "hint": exc.hint}, err
        )
        return 2
    except (KeyError, OSError, ValueError) as exc:
        err(f"error: {_error_line(exc)}")
        return 2
    except Exception as exc:
        # The daemon client's structured rejections carry the same
        # {error, field, hint} body the HTTP API returns.
        body = getattr(exc, "body", None)
        if isinstance(body, dict) and "error" in body:
            _emit_structured(body, err)
            return 2
        raise


def _emit_structured(body: dict, err) -> None:
    """Render a structured {error, field, hint} body on stderr.

    The first line stays ``error: <message>`` — the same contract every
    other CLI failure keeps — with the field and hint indented after.
    """
    err(f"error: {body.get('error', 'request rejected')}")
    if body.get("field"):
        err(f"  field: {body['field']}")
    if body.get("hint"):
        err(f"  hint:  {body['hint']}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
