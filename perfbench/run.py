"""The repository benchmark: one command, three workloads, oracle-checked.

    python3 perfbench/run.py --workload daemon-jobs --seed 1 --seconds 10 --trace 0

Workloads (``spec.json`` has the details):

- ``daemon-jobs`` — two closed-loop HTTP clients against the daemon in
  its own process, one projection job at a time;
- ``engine-mix`` — one in-process caller through ``ProjectionEngine``
  and the surrogate front-end, cache hits beside misses;
- ``sweep-fleet`` — ``SweepEngine.sweep_arch_grid`` over seeded size
  axes x all seven registry architectures.

``--trace 0`` measures the end-to-end metrics with the program
unmodified.  ``--trace 1`` runs the same workload twice, untraced and
then with span wrappers installed around the program's public
functions, and reports the per-layer metrics (plus the tracing
overhead between the two).  Every answer is checked against the scalar
oracle after the timed window; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import statistics
import sys
import time

from common import (
    OUT,
    ROOT,
    WORK,
    beyond,
    load_spec,
    nearest_rank,
    use_source_tree,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def speedup_error_pct(seed: int) -> float:
    """Table II's "kernel and transfer" error averaged over data sets."""
    from repro.harness.context import ExperimentContext
    from repro.harness.speedups import run_table2_speedup_error

    table = run_table2_speedup_error(ExperimentContext(seed=seed))
    return 100.0 * table.dataset_average.both_error


def end_to_end(spec, phase, setups, verdict, seed, rss_mb) -> dict:
    latencies = phase.latencies
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": phase.work / phase.wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3
        * nearest_rank(latencies, spec["tail_percentile"]),
        "answer_agreement_pct": (
            100.0 * verdict.agreeing / verdict.answers
            if verdict.answers
            else 0.0
        ),
        "speedup_err_pct": speedup_error_pct(seed),
        "peak_rss_mb": rss_mb,
    }


def timed_setups(workload, count: int) -> list[float]:
    """Set the workload up ``count`` times; the seconds of each.

    The last set-up is left standing.
    """
    times = []
    for rep in range(count):
        if rep:
            workload.teardown()
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def measured(workload, spec, seconds: float, seed: int):
    """The untraced run.

    ``setup_s`` is the median of ``setup_repeats`` set-ups, half of
    them before the warm-up and half after the oracle check, so that
    one run's figure samples the host's speed at both ends of the run.
    """
    repeats = spec["setup_repeats"]
    marks = [time.perf_counter()]
    setups = timed_setups(workload, (repeats + 1) // 2)
    marks.append(time.perf_counter())
    workload.warm_up()
    gc.collect()
    marks.append(time.perf_counter())
    phase = workload.run(seconds)
    workload.teardown()
    marks.append(time.perf_counter())
    verdict = workload.check(phase)
    rss_mb = workload.peak_rss_mb(phase)
    shares = workload.shares(phase)
    phase.answers.clear()
    marks.append(time.perf_counter())
    setups += timed_setups(workload, repeats // 2)
    workload.teardown()
    marks.append(time.perf_counter())
    metrics = end_to_end(spec, phase, setups, verdict, seed, rss_mb)
    marks.append(time.perf_counter())
    walls = dict(
        zip(
            ("setups", "warm-up", "run", "check", "more setups", "metrics"),
            (b - a for a, b in zip(marks, marks[1:])),
        )
    )
    return phase, verdict, metrics, setups, shares, walls


def traced(workload, spec, seconds: float, seed: int, units: dict):
    from spans import (
        SpanRecorder,
        SpanSet,
        dump_spans,
        install,
        layer_metrics,
    )

    workload.setup()
    workload.warm_up()
    gc.collect()
    base = workload.run(seconds)
    workload.teardown()
    verdict = workload.check(base)
    base.answers.clear()

    recorder = SpanRecorder()
    installation = install(recorder, workload.targets)
    try:
        workload.setup(traced=True)
        workload.warm_up()
        gc.collect()
        recorder.active = True
        phase = workload.run(seconds, recorder)
        recorder.active = False
    finally:
        installation.remove()
        workload.teardown()
    verdict.merge(workload.check(phase))

    spans = SpanSet(recorder.spans + workload.server_spans(phase))
    metrics = layer_metrics(spans)
    metrics.update(workload.layer_extras(phase, spans))
    metrics["trace.coverage_pct"] = spans.coverage(phase.threads, phase.wall)
    metrics["trace.overhead_pct"] = 100.0 * (
        (base.work / base.wall) / (phase.work / phase.wall) - 1.0
    )
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{workload.name}-seed{seed}.spans.json"
    dump_spans(spans.spans, dump)
    ledger = [f"  span dump: {dump.relative_to(ROOT)}"]
    if installation.missing:
        ledger.append(
            "  not traced (missing): " + ", ".join(installation.missing)
        )
    per = max(1, len(phase.latencies))
    ledger.append(f"  self-time ledger, ms per timed call ({per} calls):")
    for name, (calls, inclusive, own) in sorted(
        spans.self_times().items(), key=lambda item: -item[1][2]
    ):
        ledger.append(
            f"    {name:30s} calls {calls:7d}"
            f"  incl {1e3 * inclusive / per:9.4f}  self {1e3 * own / per:9.4f}"
        )
    missing = set(units) - set(metrics)
    metrics.update({name: 0.0 for name in missing})
    return base, phase, verdict, metrics, ledger


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_source_tree()
    # A SIGTERM unwinds through the finally below, which stops the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_all = load_spec()
    if args.workload not in spec_all["workloads"]:
        print(
            f"perfbench: unknown workload {args.workload!r}; know "
            f"{', '.join(spec_all['workloads'])}",
            file=sys.stderr,
        )
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    from workloads import WORKLOADS

    spec = spec_all["workloads"][args.workload]
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, spec, workdir)
    lines = [
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    ]
    try:
        if args.trace:
            base, phase, verdict, metrics, ledger = traced(
                workload, spec, args.seconds, args.seed, units
            )
            attempted = base.attempted + phase.attempted
            failed = base.errors + phase.errors + verdict.mismatches
        else:
            phase, verdict, metrics, setups, shares, walls = measured(
                workload, spec, args.seconds, args.seed
            )
            attempted = phase.attempted
            failed = phase.errors + verdict.mismatches
            count = len(phase.latencies)
            pct = spec["tail_percentile"]
            ledger = [
                f"  {spec['throughput']} = throughput_per_s "
                f"({phase.work} in {phase.wall:.3f} s)",
                f"  latency: {count} samples; p50; tail = p{pct} "
                f"({beyond(count, pct)} samples beyond it)",
                f"  setup_s: median of {len(setups)} set-ups "
                + ", ".join(f"{s:.3f}" for s in setups),
                f"  error_ratio = {failed}/{attempted}; oracle checked "
                f"{verdict.answers} answers, {verdict.agreeing} agree",
            ]
            ledger.append(
                "  wall, s: "
                + ", ".join(f"{k} {v:.2f}" for k, v in walls.items())
            )
            if shares:
                ledger.append(
                    "  mix, % of timed answers: "
                    + ", ".join(f"{k} {v:.1f}" for k, v in shares.items())
                )
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    lines.extend(ledger)
    lines.extend(f"  note: {note}" for note in verdict.notes[:10])
    result_metrics = {}
    for name, unit in units.items():
        lines.append(f"  {name:36s} {metrics[name]:14.6g} {unit}")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and verdict.answers > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
