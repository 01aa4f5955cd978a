"""Span recording around the program's public functions, traced runs only.

Wrappers are installed where callers look a function up — a module
global such as ``repro.service.engine.analyze_transfers`` or a class
attribute such as ``ProjectionEngine.project`` — and removed again
afterwards, so untraced runs execute the program unmodified.  Spans
(name, start, end, parent, request id) stay in memory; the benchmark
writes them out when the run ends.

A target whose module or attribute no longer exists is skipped and
reported, so a refactor that removes a function leaves that layer's
metric at zero instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence


class Span:
    """One timed call; ``parent`` is the enclosing span on its thread."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "attrs")

    def __init__(
        self, name: str, parent: "Span | None", request: Any, thread: int
    ) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.request = request
        self.thread = thread
        self.attrs: dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread while ``active`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()

    def set_request(self, request: Any) -> None:
        """Tag the calling thread's next spans with ``request``."""
        self._local.request = request

    def open(self, name: str) -> Span | None:
        if not self.active:
            return None
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = Span(
            name,
            stack[-1] if stack else None,
            getattr(local, "request", None),
            threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add an already-timed leaf span (the benchmark's own waits)."""
        if not self.active:
            return
        local = self._local
        stack = getattr(local, "stack", None) or []
        span = Span(
            name,
            stack[-1] if stack else None,
            getattr(local, "request", None),
            threading.get_ident(),
        )
        span.start, span.end = start, end
        self.spans.append(span)

def dump_spans(spans: Sequence[Span], path: str | Path) -> None:
    """Write spans as JSON (parents as list indices)."""
    index = {id(span): i for i, span in enumerate(spans)}
    rows = [
        {
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "parent": index.get(id(span.parent)) if span.parent else None,
            "request": span.request,
            "thread": span.thread,
            "attrs": span.attrs,
        }
        for span in spans
    ]
    Path(path).write_text(json.dumps(rows), encoding="utf-8")


def load_spans(path: str | Path) -> list[Span]:
    """Read spans written by :func:`dump_spans`."""
    rows = json.loads(Path(path).read_text(encoding="utf-8"))
    spans: list[Span] = []
    for row in rows:
        span = Span(row["name"], None, row["request"], row["thread"])
        span.start, span.end = row["start"], row["end"]
        span.attrs = row["attrs"]
        spans.append(span)
    for span, row in zip(spans, rows):
        if row["parent"] is not None:
            span.parent = spans[row["parent"]]
    return spans


# Notes: attributes read off a call's arguments and result --------------
Note = Callable[[SpanRecorder, Span, tuple, Any], None]


def _note_cached(recorder, span, args, result) -> None:
    span.attrs["hit"] = bool(result.cached)


def _note_found(recorder, span, args, result) -> None:
    span.attrs["hit"] = result is not None


def _note_path(recorder, span, args, result) -> None:
    span.attrs["path"] = result.path


def _note_program_configs(recorder, span, args, result) -> None:
    span.attrs["configs"] = sum(k.search_width for k in result.kernels)


def _note_kernel_configs(recorder, span, args, result) -> None:
    span.attrs["configs"] = result.search_width


def _note_sweep_stats(recorder, span, args, result) -> None:
    span.attrs.update(args[0].stats)


def _note_server_submit(recorder, span, args, result) -> None:
    status, body = result
    span.attrs["status"] = status
    span.request = body.get("id")


def _note_client_submit(recorder, span, args, result) -> None:
    span.request = result.get("id")


def _note_claim(recorder, span, args, result) -> None:
    if result is not None:
        span.request = result.job_id
        recorder.set_request(result.job_id)


Target = tuple[str, str, str, "Note | None"]

#: In-process layers: service, core, surrogate, transform/gpu,
#: datausage, pcie, skeleton, sweep.
ENGINE_TARGETS: tuple[Target, ...] = (
    ("repro.service.jobs", "parse_request", "service.jobs.parse_request", None),
    ("repro.service.jobs", "parse_skeleton", "skeleton.parse", None),
    (
        "repro.service.engine",
        "ProjectionEngine.project",
        "service.engine.project",
        _note_cached,
    ),
    (
        "repro.service.engine",
        "ProjectionEngine.fingerprint",
        "service.engine.fingerprint",
        None,
    ),
    ("repro.service.cache", "ProjectionCache.get", "service.cache.get", _note_found),
    ("repro.service.cache", "ProjectionCache.put", "service.cache.put", None),
    (
        "repro.service.cache",
        "KernelProjectionCache.get",
        "service.kernel_cache.get",
        _note_found,
    ),
    ("repro.service.engine", "summarize_projection", "core.summarize", None),
    (
        "repro.core.serialize",
        "ProjectionSummary.from_dict",
        "core.summary_decode",
        None,
    ),
    (
        "repro.surrogate.engine",
        "SurrogateEngine.project",
        "surrogate.project",
        _note_path,
    ),
    (
        "repro.service.engine",
        "project_kernels_parallel",
        "transform.explore",
        _note_program_configs,
    ),
    (
        "repro.service.engine",
        "explore_kernel_parallel",
        "transform.explore",
        _note_kernel_configs,
    ),
    ("repro.service.parallel", "analyze_kernel", "transform.analysis", None),
    ("repro.transform.fastpath", "analyze_kernel", "transform.analysis", None),
    ("repro.surrogate.engine", "analyze_kernel", "transform.analysis", None),
    ("repro.sweep.engine", "shared_kernel_analyses", "transform.analysis", None),
    (
        "repro.transform.analysis",
        "KernelAnalysis.characteristics_grid",
        "transform.analysis",
        None,
    ),
    ("repro.transform.fastpath", "score_batch", "gpu.score", None),
    ("repro.sweep.engine", "score_grid", "gpu.score", None),
    ("repro.service.engine", "analyze_transfers", "datausage.plan", None),
    ("repro.surrogate.engine", "analyze_transfers", "datausage.plan", None),
    ("repro.sweep.engine", "analyze_transfers", "datausage.plan", None),
    ("repro.sweep.engine", "fit_plan_template", "datausage.plan", None),
    (
        "repro.pcie.model",
        "BusModel.predict_plan_by_transfer",
        "pcie.price",
        None,
    ),
    (
        "repro.sweep.engine",
        "SweepEngine.sweep_arch_grid",
        "sweep.grid",
        _note_sweep_stats,
    ),
)

#: Daemon-process layers: HTTP handler entry, journaled queue, event log.
SERVER_TARGETS: tuple[Target, ...] = (
    (
        "repro.daemon.server",
        "DaemonApp.submit",
        "daemon.server.submit",
        _note_server_submit,
    ),
    ("repro.daemon.queue", "JobQueue.submit", "daemon.queue.submit", None),
    ("repro.daemon.queue", "JobQueue.claim", "daemon.queue.claim", _note_claim),
    ("repro.daemon.queue", "JobQueue.finish", "daemon.queue.finish", None),
    ("repro.obs.events", "EventLog.emit", "obs.events.emit", None),
)

#: Client-side daemon layers, in the benchmark process.
CLIENT_TARGETS: tuple[Target, ...] = (
    (
        "repro.daemon.client",
        "DaemonClient.submit",
        "daemon.client.submit",
        _note_client_submit,
    ),
    ("repro.daemon.client", "DaemonClient.result", "daemon.client.result", None),
)


def _traced(
    recorder: SpanRecorder, fn: Callable, name: str, note: Note | None
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if note is not None:
            note(recorder, span, args, result)
        return result

    return traced


class Installation:
    """Installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def remove(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(
    recorder: SpanRecorder, targets: Iterable[Target]
) -> Installation:
    """Wrap every target that exists; list the ones that do not."""
    done = Installation()
    for module_name, path, name, note in targets:
        label = f"{module_name}:{path}"
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            done.missing.append(label)
            continue
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        try:
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            done.missing.append(label)
            continue
        if isinstance(original, staticmethod):
            wrapped: Any = staticmethod(
                _traced(recorder, original.__func__, name, note)
            )
        elif isinstance(original, classmethod):
            wrapped = classmethod(
                _traced(recorder, original.__func__, name, note)
            )
        else:
            wrapped = _traced(recorder, original, name, note)
        own = attr in vars(owner)
        setattr(owner, attr, wrapped)
        done._undo.append((owner, attr, original, own))
        done.installed.append(label)
    return done


# Reading spans back ------------------------------------------------------
def request_of(span: Span) -> Any:
    """The span's request id, inherited from its ancestors when unset."""
    while span is not None:
        if span.request is not None:
            return span.request
        span = span.parent
    return None


class SpanSet:
    """Spans of one traced phase, indexed by name."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            self.by_name.setdefault(span.name, []).append(span)

    def where(
        self, name: str, pred: Callable[[Span], bool] | None = None
    ) -> list[Span]:
        spans = self.by_name.get(name, [])
        return spans if pred is None else [s for s in spans if pred(s)]

    def count(self, name: str, pred=None) -> int:
        return len(self.where(name, pred))

    def mean(self, name: str, pred=None, scale: float = 1e3) -> float:
        """Mean inclusive duration per call, in ``scale`` units."""
        spans = self.where(name, pred)
        if not spans:
            return 0.0
        return scale * sum(s.seconds for s in spans) / len(spans)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.by_name.get(name, []))

    def ratio(self, name: str, pred) -> float:
        spans = self.where(name)
        if not spans:
            return 0.0
        return sum(1 for s in spans if pred(s)) / len(spans)

    def attr_sum(self, name: str, attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.where(name))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the part its child spans
        cover (children run nested on the same thread).
        """
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                children[key] = children.get(key, 0.0) + span.seconds
        ledger: dict[str, tuple[int, float, float]] = {}
        for span in self.spans:
            calls, inclusive, own = ledger.get(span.name, (0, 0.0, 0.0))
            ledger[span.name] = (
                calls + 1,
                inclusive + span.seconds,
                own + span.seconds - children.get(id(span), 0.0),
            )
        return ledger

    def coverage(self, threads: Iterable[int], wall: float) -> float:
        """Percent of the load threads' wall time inside root spans."""
        threads = set(threads)
        if not threads or wall <= 0:
            return 0.0
        covered = sum(
            s.seconds
            for s in self.spans
            if s.parent is None and s.thread in threads
        )
        return 100.0 * covered / (wall * len(threads))


def layer_metrics(spans: SpanSet) -> dict[str, float]:
    """The per-layer metrics that read straight off the spans."""

    def hit(span: Span) -> bool:
        return bool(span.attrs.get("hit"))

    def surrogate(span: Span) -> bool:
        return span.attrs.get("path") == "surrogate"

    explore_seconds = spans.total("transform.explore")
    configs = spans.attr_sum("transform.explore", "configs")
    plans = spans.attr_sum("sweep.grid", "plans_computed")
    groups = spans.attr_sum("sweep.grid", "coalescing_groups")
    client_submit = spans.mean("daemon.client.submit")
    server_submit = spans.mean("daemon.server.submit")
    return {
        "daemon.client.submit_ms": client_submit,
        "daemon.client.result_ms": spans.mean("daemon.client.result"),
        "daemon.server.submit_ms": server_submit,
        "daemon.http_overhead_ms": (
            client_submit - server_submit
            if client_submit and server_submit
            else 0.0
        ),
        "daemon.queue.submit_ms": spans.mean("daemon.queue.submit"),
        "daemon.queue.finish_ms": spans.mean("daemon.queue.finish"),
        "daemon.queue.claim_wait_ms": spans.mean("daemon.queue.claim"),
        "obs.events.emit_us": spans.mean("obs.events.emit", scale=1e6),
        "service.jobs.parse_request_ms": spans.mean(
            "service.jobs.parse_request"
        ),
        "service.engine.fingerprint_ms": spans.mean(
            "service.engine.fingerprint"
        ),
        "service.engine.project_hit_ms": spans.mean(
            "service.engine.project", hit
        ),
        "service.engine.project_miss_ms": spans.mean(
            "service.engine.project", lambda s: not hit(s)
        ),
        "service.cache.hit_ratio": spans.ratio("service.cache.get", hit),
        "service.kernel_cache.hit_ratio": spans.ratio(
            "service.kernel_cache.get", hit
        ),
        "service.cache.get_ms": spans.mean("service.cache.get"),
        "service.cache.put_ms": spans.mean("service.cache.put"),
        "core.summarize_ms": spans.mean("core.summarize"),
        "core.summary_decode_ms": spans.mean("core.summary_decode"),
        "surrogate.project_us": spans.mean(
            "surrogate.project", surrogate, scale=1e6
        ),
        "surrogate.accept_ratio": spans.ratio("surrogate.project", surrogate),
        "transform.explore_ms": spans.mean("transform.explore"),
        "transform.configs_scored": configs,
        "transform.configs_per_s": (
            configs / explore_seconds if explore_seconds else 0.0
        ),
        "transform.analysis_ms": spans.mean("transform.analysis"),
        "gpu.score_ms": spans.mean("gpu.score"),
        "datausage.plan_ms": spans.mean("datausage.plan"),
        "pcie.price_ms": spans.mean("pcie.price"),
        "skeleton.parse_ms": spans.mean("skeleton.parse"),
        "sweep.grid_ms": spans.mean("sweep.grid"),
        "sweep.plans_from_template_ratio": (
            spans.attr_sum("sweep.grid", "plans_from_template") / plans
            if plans
            else 0.0
        ),
        "sweep.groups_shared_ratio": (
            spans.attr_sum("sweep.grid", "groups_shared") / groups
            if groups
            else 0.0
        ),
    }
