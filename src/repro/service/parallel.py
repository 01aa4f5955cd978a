"""Deterministic request-level fan-out over one persistent thread pool.

A module-level ``ThreadPoolExecutor`` (:func:`shared_pool`) sits behind
:func:`map_ordered` and :func:`submit_shared`;
:meth:`~repro.service.engine.ProjectionEngine.project_batch` and the
JSONL batch runner (which the daemon's batch jobs reuse) share it
instead of building an executor per call.  Results always come
back in input order, so parallel and serial execution produce
*identical* results.  ``max_workers <= 1`` (or a pool that cannot be
created) falls back to a plain serial loop; :func:`shutdown_pool`
releases the pool explicitly (the daemon calls it on drain).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# --------------------------------------------------------------------- #
# Shared thread pool
# --------------------------------------------------------------------- #
_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def shared_pool(max_workers: int) -> ThreadPoolExecutor | None:
    """The module-level reusable thread pool, grown to ``max_workers``.

    Created on first use and reused by every subsequent caller —
    ``project_batch`` and the batch runner draw from the same warm pool
    instead of paying executor construction (thread spawn + queue setup)
    per call.  When a caller asks for more
    workers than the pool has, a larger pool replaces it; the old one
    finishes its queued work in the background (``shutdown(wait=False)``
    cancels nothing).  Returns ``None`` when the pool cannot be created
    (thread-limited environment) — callers fall back to serial.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is not None and _POOL_WORKERS >= max_workers:
            return _POOL
        try:
            pool = ThreadPoolExecutor(
                max_workers=max_workers,
                thread_name_prefix="repro-shared",
            )
        except (OSError, RuntimeError):
            return _POOL
        if _POOL is not None:
            _POOL.shutdown(wait=False)
        _POOL = pool
        _POOL_WORKERS = max_workers
        return pool


def shutdown_pool(wait: bool = True) -> None:
    """Release the shared thread pool (recreated lazily on next use)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=wait)


def submit_shared(fn: Callable[..., R], *args, **kwargs) -> Future:
    """Submit one task to the shared pool (serial Future if pool-less)."""
    pool = shared_pool(max(2, _POOL_WORKERS))
    if pool is not None:
        try:
            return pool.submit(fn, *args, **kwargs)
        except RuntimeError:
            pass  # pool raced a shutdown; run inline below
    future: Future = Future()
    try:
        future.set_result(fn(*args, **kwargs))
    except BaseException as exc:  # noqa: BLE001 - mirror executor behavior
        future.set_exception(exc)
    return future


def map_ordered(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` with optional thread fan-out.

    Results always come back in input order regardless of completion
    order.  Runs serially when ``max_workers`` is None/<=1, when there is
    at most one item, or when the shared pool cannot be created (e.g. a
    thread-limited environment) — the serial fallback is semantically
    identical.  Fan-out goes through :func:`shared_pool`, so repeated
    calls reuse one warm executor instead of building one per call.
    """
    work = list(items)
    if max_workers is None or max_workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    pool = shared_pool(min(max_workers, len(work)))
    if pool is None:
        return [fn(item) for item in work]
    try:
        futures = [pool.submit(fn, item) for item in work]
    except RuntimeError:  # raced an explicit shutdown_pool()
        return [fn(item) for item in work]
    return [future.result() for future in futures]
