"""Hierarchical trace spans for the projection stack.

A :class:`Tracer` records *spans* — named, timed regions of the pipeline
(``project`` → per-kernel ``search`` → ``score`` batches →
``transfer-planning`` → ``integrate``) — with parent/child nesting per
thread, so a single traced projection explains where its wall time went.
Everything is standard library only and thread-safe: worker threads from
the service pool record concurrently into the same tracer, each on its
own lane.

Tracing is **ambient and off by default**: instrumentation points call
the module-level :func:`span` function, which is a shared no-op context
manager until a tracer is installed with :func:`install` (or the
:func:`tracing` context manager).  The disabled path costs one global
read and one identity check per instrumentation point, which is what
keeps the overhead bound in
``benchmarks/bench_explorer_throughput.py`` comfortably under 2%.

On top of the process-wide ambient tracer there is a **thread-scoped**
layer (:func:`scoped_tracing`) for concurrent per-request tracing: the
daemon's workers each install a per-job tracer on their own thread, so
four jobs running at once record four disjoint traces with no
cross-request span leakage.  The scope check is guarded by a global
counter (``_scopes_active``) so the fully-disabled path stays the same
two instructions; threads only pay the thread-local lookup while at
least one scope exists anywhere in the process.

Exports:

- :meth:`Tracer.to_jsonl` / :meth:`Tracer.write_jsonl` — one JSON object
  per span, for log pipelines;
- :meth:`Tracer.chrome_trace` / :meth:`Tracer.write_chrome_trace` — the
  Chrome ``trace_event`` JSON object format (complete ``"X"`` events
  with ``name``/``cat``/``ph``/``ts``/``dur``/``pid``/``tid``),
  loadable in ``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Chrome trace_event keys every exported event carries; the CI step and
#: ``tests/obs/test_trace.py`` validate emitted traces against this.
CHROME_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


@dataclass(frozen=True)
class TraceSpan:
    """One finished region: what ran, when, for how long, under what."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    #: Seconds since the tracer's epoch (its construction instant).
    start: float
    duration: float
    thread_id: int
    thread_name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe record (the JSONL export's row)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "attrs": dict(self.attrs),
        }

    def to_chrome_event(self, pid: int) -> dict[str, Any]:
        """Complete-event (``ph: "X"``) form; times in microseconds."""
        args = dict(self.attrs)
        args["span_id"] = self.span_id
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        return {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.start * 1e6,
            "dur": self.duration * 1e6,
            "pid": pid,
            "tid": self.thread_id,
            "args": args,
        }


class _SpanHandle:
    """The object a ``with span(...)`` block receives.

    ``set(key=value)`` attaches attributes discovered mid-span (e.g. the
    illegal-row count, or whether a request hit the cache); they land in
    the finished span's ``attrs``.
    """

    __slots__ = ("attrs",)

    def __init__(self, attrs: dict[str, Any]) -> None:
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


class _NullSpan:
    """Shared, reusable no-op span: the cost of tracing when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe recorder of hierarchical spans.

    Nesting is tracked per thread: a span opened while another is open
    on the same thread records it as its parent.  Spans on pool workers
    start their own per-thread lanes (Chrome/Perfetto renders one track
    per ``tid``), so a parallel exploration reads as parallel.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[TraceSpan] = []
        self._stack = threading.local()
        self._next_id = 0
        self._epoch = time.perf_counter()
        #: Wall-clock instant of the perf_counter epoch: span ``start``
        #: values are relative to it, so ``wall_epoch + span.start`` is
        #: the span's absolute unix time.  Used to stitch in-process
        #: spans together with cross-process lifecycle timestamps (the
        #: daemon's client-submit / queue-dwell synthetic spans).
        self.wall_epoch = time.time()

    # Recording -----------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, category: str = "projection", **attrs: Any
    ) -> Iterator[_SpanHandle]:
        """Record one region; yields a handle for mid-span attributes."""
        stack = getattr(self._stack, "frames", None)
        if stack is None:
            stack = []
            self._stack.frames = stack
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        handle = _SpanHandle(dict(attrs))
        start = time.perf_counter() - self._epoch
        try:
            yield handle
        finally:
            duration = time.perf_counter() - self._epoch - start
            stack.pop()
            thread = threading.current_thread()
            record = TraceSpan(
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                start=start,
                duration=duration,
                thread_id=thread.ident or 0,
                thread_name=thread.name,
                attrs=handle.attrs,
            )
            with self._lock:
                self._spans.append(record)

    # Views ---------------------------------------------------------------
    def spans(self) -> tuple[TraceSpan, ...]:
        """Every finished span, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # Exports -------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per span, newline-delimited."""
        return "\n".join(
            json.dumps(s.to_dict(), sort_keys=True) for s in self.spans()
        )

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        text = self.to_jsonl()
        path.write_text(text + "\n" if text else "", encoding="utf-8")
        return path

    def chrome_trace(self) -> dict[str, Any]:
        """The Chrome ``trace_event`` JSON object form of the trace."""
        pid = os.getpid()
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [s.to_chrome_event(pid) for s in self.spans()],
        }

    def write_chrome_trace(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
        return path

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"tracer: {len(self)} span(s)"


# The ambient tracer ------------------------------------------------------
_active: Tracer | None = None

# The thread-scoped layer: a per-thread tracer that takes precedence
# over the ambient one.  ``_scopes_active`` counts live scopes across
# the whole process so the common no-scope case never touches the
# thread-local (one extra global read on the disabled path).
_scope = threading.local()
_scopes_active = 0
_scope_lock = threading.Lock()


def current() -> Tracer | None:
    """The effective tracer for this thread, or None when disabled.

    A thread-scoped tracer (:func:`scoped_tracing`) wins over the
    process-wide ambient one.
    """
    if _scopes_active:
        scoped = getattr(_scope, "tracer", None)
        if scoped is not None:
            return scoped
    return _active


def scope_active() -> bool:
    """True when any thread in the process holds a scoped tracer."""
    return bool(_scopes_active)


def install(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-wide ambient tracer."""
    global _active
    _active = tracer


def uninstall() -> None:
    """Disable tracing (instrumentation reverts to the no-op span)."""
    global _active
    _active = None


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a block; yields it.

    The previously installed tracer (usually None) is restored on exit,
    so nested or test-scoped tracing never leaks.
    """
    # Not ``tracer or Tracer()``: an empty Tracer is falsy (__len__ == 0)
    # and the caller's tracer would be silently swapped for a fresh one.
    if tracer is None:
        tracer = Tracer()
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous


@contextmanager
def scoped_tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Install a tracer for this thread only, for the block's duration.

    Unlike :func:`tracing` (process-wide), a scoped tracer is visible
    solely to spans opened on the installing thread — the daemon's
    workers each trace their own job concurrently without leaking spans
    into each other's traces.  Scopes nest: the previous thread-scoped
    tracer (usually None) is restored on exit.
    """
    global _scopes_active
    if tracer is None:
        tracer = Tracer()
    previous = getattr(_scope, "tracer", None)
    _scope.tracer = tracer
    with _scope_lock:
        _scopes_active += 1
    try:
        yield tracer
    finally:
        with _scope_lock:
            _scopes_active -= 1
        _scope.tracer = previous


def span(name: str, category: str = "projection", **attrs: Any):
    """Record a span on the effective tracer — a shared no-op without one.

    This is the function the pipeline's instrumentation points call; the
    disabled cost is two global reads, one comparison, and the kwargs
    dict the caller built.  The thread-local scope is consulted only
    while at least one :func:`scoped_tracing` block is live anywhere in
    the process, and a thread's scoped tracer wins over the ambient one.
    """
    if _scopes_active:
        # Not ``scoped or _active``: a tracer with no spans yet is falsy
        # (``__len__`` == 0) and would be silently skipped.
        scoped = getattr(_scope, "tracer", None)
        tracer = scoped if scoped is not None else _active
    else:
        tracer = _active
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **attrs)
