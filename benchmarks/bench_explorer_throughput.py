"""Explorer throughput: the scalar reference vs the fused explorer.

The projected kernel time is the min over the transformation space, so
configs-scored-per-second is the system's hot-path metric.  This
benchmark sweeps every registered workload's kernels over
``TransformationSpace.wide()`` with both scoring paths and asserts the
acceptance bar from ``docs/EXPLORER.md``: the fused (``fast``) path is
at least 5x faster than the reference explorer.

Per-kernel ratios vary (the smallest skeletons are dominated by work
both paths share); the bar is on the aggregate — total configs scored
over total wall time.  Measured rates land in ``BENCH_explorer.json``
(per path, configs/s) for the CI ``throughput`` job to upload.
"""

import time

from repro.gpu.arch import quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.transform.explorer import explore_kernel


def _sweep(suite, model, space, explorer):
    for _, kernel, program in suite:
        explore_kernel(kernel, program, model, space, explorer=explorer)


def _best_of(fn, rounds=3):
    fn()  # warm up caches and imports
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_reference_explorer(benchmark, kernel_suite, wide_space):
    model = GpuPerformanceModel(quadro_fx_5600())
    benchmark.pedantic(
        lambda: _sweep(kernel_suite, model, wide_space, "reference"),
        rounds=3,
        warmup_rounds=1,
    )


def test_fast_explorer(benchmark, kernel_suite, wide_space):
    model = GpuPerformanceModel(quadro_fx_5600())
    benchmark.pedantic(
        lambda: _sweep(kernel_suite, model, wide_space, "fast"),
        rounds=3,
        warmup_rounds=1,
    )


def test_fast_is_at_least_5x_faster(kernel_suite, wide_space, bench_json):
    """The acceptance bar, measured directly in configs/second."""
    model = GpuPerformanceModel(quadro_fx_5600())
    configs_per_sweep = len(wide_space) * len(kernel_suite)

    ref = _best_of(
        lambda: _sweep(kernel_suite, model, wide_space, "reference")
    )
    fast = _best_of(lambda: _sweep(kernel_suite, model, wide_space, "fast"))
    ref_rate = configs_per_sweep / ref
    fast_rate = configs_per_sweep / fast
    bench_json(
        "explorer",
        {
            "configs_per_sweep": configs_per_sweep,
            "reference_configs_per_s": ref_rate,
            "fast_configs_per_s": fast_rate,
            "fast_over_reference": ref / fast,
        },
    )
    print(
        f"\nreference: {ref_rate:,.0f} configs/s   "
        f"fast: {fast_rate:,.0f} configs/s   ratio: {ref / fast:.1f}x"
    )
    assert ref / fast >= 5.0


def test_tracing_disabled_overhead_under_2_percent(kernel_suite, wide_space):
    """Observability acceptance bar: tracing off must cost < 2%.

    Raw A/B wall-clock of the same sweep is noisier than the bound
    itself, so the check is constructive: measure the per-call cost of a
    disabled instrumentation point (one global read + identity check +
    the kwargs dict), count the spans one traced sweep emits, and bound
    the total instrumentation cost against the sweep's wall time.
    """
    from repro.obs.trace import span, tracing

    model = GpuPerformanceModel(quadro_fx_5600())

    sweep_seconds = _best_of(
        lambda: _sweep(kernel_suite, model, wide_space, "fast")
    )

    with tracing() as tracer:
        _sweep(kernel_suite, model, wide_space, "fast")
    spans_per_sweep = len(tracer)
    assert spans_per_sweep > 0  # the sweep is actually instrumented

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("probe", kernel="k"):
            pass
    disabled_cost = (time.perf_counter() - start) / calls

    overhead = disabled_cost * spans_per_sweep / sweep_seconds
    print(
        f"\ntracing disabled: {disabled_cost * 1e9:.0f} ns/span x "
        f"{spans_per_sweep} span(s) over a {sweep_seconds * 1e3:.1f} ms "
        f"sweep = {overhead:.4%} overhead"
    )
    assert overhead < 0.02


def test_obs_v2_disabled_overhead_under_2_percent(
    kernel_suite, wide_space, tmp_path
):
    """Obs v2 acceptance bar: trace-context + event-log paths off ≤ 2%.

    Same constructive method as the ambient-tracing gate, extended to
    the two new obs v2 paths an *untraced* request can see:

    - trace-context: once any scoped tracer is live anywhere in the
      process (a traced daemon job in flight), every disabled span on
      every other thread pays the thread-local lookup on top of the
      global reads.  Measure that worst-case per-call cost under a live
      scope held by another thread.
    - event log: a daemon job emits a handful of events (the queue's
      submit/start/complete lifecycle rows plus surrogate and audit
      verdicts) to a disk-backed JSONL log; bound the whole per-job
      event cost.
    """
    import threading

    from repro.obs.events import EventLog
    from repro.obs.trace import span, tracing
    from repro.obs.trace import scoped_tracing

    model = GpuPerformanceModel(quadro_fx_5600())
    sweep_seconds = _best_of(
        lambda: _sweep(kernel_suite, model, wide_space, "fast")
    )
    with tracing() as tracer:
        _sweep(kernel_suite, model, wide_space, "fast")
    spans_per_sweep = len(tracer)
    assert spans_per_sweep > 0

    # Worst-case disabled span: another thread holds a live scope.
    holding = threading.Event()
    release = threading.Event()

    def hold_scope():
        with scoped_tracing():
            holding.set()
            release.wait(30)

    holder = threading.Thread(target=hold_scope, daemon=True)
    holder.start()
    assert holding.wait(5)
    try:
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            with span("probe", kernel="k"):
                pass
        scoped_disabled_cost = (time.perf_counter() - start) / calls
    finally:
        release.set()
        holder.join(5)

    # Event-log emission, disk-backed like the daemon's.
    events = EventLog(tmp_path / "events.jsonl")
    emits = 20_000
    start = time.perf_counter()
    for _ in range(emits):
        events.emit("complete", job_id="j", trace_id="t", run_seconds=0.1)
    emit_cost = (time.perf_counter() - start) / emits
    events_per_job = 8  # submit..complete + surrogate/audit verdicts

    span_overhead = scoped_disabled_cost * spans_per_sweep / sweep_seconds
    event_overhead = emit_cost * events_per_job / sweep_seconds
    overhead = span_overhead + event_overhead
    print(
        f"\nobs v2 disabled: {scoped_disabled_cost * 1e9:.0f} ns/span "
        f"(scope live elsewhere) x {spans_per_sweep} span(s) "
        f"+ {emit_cost * 1e6:.1f} us/event x {events_per_job} event(s) "
        f"over a {sweep_seconds * 1e3:.1f} ms sweep "
        f"= {overhead:.4%} overhead"
    )
    assert overhead < 0.02
