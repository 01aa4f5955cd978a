"""The projection service: batched, cached, parallel GROPHECY++.

The library's single-shot entry point
(:class:`~repro.core.projector.GrophecyPlusPlus`) re-explores the full
transformation space and re-runs the data-usage analysis on every call.
Analytical models earn their keep by being fast enough to run at scale —
over parameter sweeps, what-if studies, and large candidate spaces — so
this package amortizes that work across requests:

- :mod:`~repro.service.engine` — :class:`ProjectionEngine` serves single
  or batched :class:`ProjectionRequest`s;
- :mod:`~repro.service.cache` — a content-addressed result cache
  (in-memory LRU + optional on-disk JSON tier) keyed by stable
  fingerprints of skeleton + architecture + bus + explorer options,
  plus a bus-independent per-kernel tier
  (:class:`KernelProjectionCache`) that lets what-if studies skip the
  transformation-space search;
- :mod:`~repro.service.parallel` — deterministic request-level fan-out
  over a shared thread pool;
- :mod:`~repro.service.metrics` — counters and per-stage timers;
- :mod:`~repro.service.jobs` — a JSONL batch runner with per-request
  error isolation (``python -m repro batch``).

See ``docs/SERVICE.md`` for the full tour.
"""

from repro.service.cache import (
    KernelProjectionCache,
    ProjectionCache,
    disk_cache_stats,
)
from repro.service.engine import (
    ProjectionEngine,
    ProjectionRequest,
    ProjectionResponse,
)
from repro.service.jobs import (
    BatchRecord,
    BatchResult,
    parse_request,
    run_batch,
)
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import map_ordered

__all__ = [
    "KernelProjectionCache",
    "ProjectionCache",
    "disk_cache_stats",
    "ProjectionEngine",
    "ProjectionRequest",
    "ProjectionResponse",
    "BatchRecord",
    "BatchResult",
    "parse_request",
    "run_batch",
    "ServiceMetrics",
    "map_ordered",
]
