"""The projection engine: batched and cached GROPHECY++.

:class:`ProjectionEngine` serves :class:`ProjectionRequest`s — single or
batched — and returns structured :class:`ProjectionResponse`s.  Compared
to calling :class:`~repro.core.projector.GrophecyPlusPlus` directly it
adds:

- **content-addressed caching**: results are keyed by
  :func:`repro.core.keys.request_key` (never the iteration count: kernel
  time scales, the transfer set does not — paper Section IV-B), so
  repeated projections (parameter sweeps, what-if studies, the figure
  harness) cost a dictionary lookup instead of a transformation-space
  search;
- **batch fan-out**: :meth:`ProjectionEngine.project_batch` serves a
  batch's requests across a worker pool with deterministic ordering;
- **metrics**: every request feeds counters (requests, cache hits and
  misses, candidates explored) and per-stage timers (explore, analyze,
  predict).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.keys import kernel_key, request_key
from repro.core.prediction import Projection
from repro.core.projector import PLAN_STORE, integrate
from repro.core.serialize import ProjectionSummary, summarize_projection
from repro.datausage.hints import AnalysisHints
from repro.gpu.arch import GPUArchitecture, quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.obs.provenance import build_provenance
from repro.obs.trace import span as trace_span
from repro.pcie.model import BusModel
from repro.pcie.presets import pcie_gen1_bus
from repro.service.cache import KernelProjectionCache, ProjectionCache
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import map_ordered, shutdown_pool
from repro.skeleton.program import ProgramSkeleton
from repro.transform.explorer import (
    EXPLORERS,
    ProgramProjection,
    explore_kernel,
    project_program,
)
from repro.transform.space import TransformationSpace
from repro.util.validation import check_positive

@dataclass(frozen=True)
class ProjectionRequest:
    """One unit of work for the engine.

    ``arch``, ``bus``, and ``space`` override the engine defaults when
    given; ``iterations`` and ``cpu_seconds`` only shape the response
    (total time, speedup verdict) and never affect the cache key.
    """

    program: ProgramSkeleton
    hints: AnalysisHints | None = None
    arch: GPUArchitecture | None = None
    bus: BusModel | None = None
    space: TransformationSpace | None = None
    batched_transfers: bool = False
    iterations: int = 1
    cpu_seconds: float | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        check_positive("iterations", self.iterations)
        if self.cpu_seconds is not None:
            check_positive("cpu_seconds", self.cpu_seconds)


@dataclass(frozen=True)
class ProjectionResponse:
    """The engine's answer: summary + provenance + serving cost."""

    request_id: str
    fingerprint: str
    summary: ProjectionSummary
    cached: bool
    seconds: float  # wall time spent serving this request
    iterations: int
    cpu_seconds: float | None = None
    #: The full projection object — only populated on a cache miss (a
    #: hit serves the cached summary, which is all the cache stores).
    projection: Projection | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_seconds(self) -> float:
        """Projected end-to-end GPU time at the requested iterations."""
        return self.summary.total_seconds(self.iterations)

    @property
    def speedup(self) -> float | None:
        """Projected speedup vs the supplied CPU time (None without)."""
        if self.cpu_seconds is None:
            return None
        return self.summary.speedup(self.cpu_seconds, self.iterations)

    def to_dict(self) -> dict[str, Any]:
        """JSONL-ready record (the batch runner's output row)."""
        record: dict[str, Any] = {
            "id": self.request_id,
            "ok": True,
            "cached": self.cached,
            "seconds": self.seconds,
            "fingerprint": self.fingerprint,
            "iterations": self.iterations,
            "total_seconds": self.total_seconds,
            "projection": self.summary.to_dict(),
        }
        if self.speedup is not None:
            record["speedup"] = self.speedup
        return record


class ProjectionEngine:
    """Serves projection requests with caching, batch fan-out, metrics."""

    def __init__(
        self,
        arch: GPUArchitecture | None = None,
        bus: BusModel | None = None,
        space: TransformationSpace | None = None,
        cache: ProjectionCache | None = None,
        metrics: ServiceMetrics | None = None,
        max_workers: int = 1,
        explorer: str = "fast",
        kernel_cache: KernelProjectionCache | None = None,
        kernel_cache_capacity: int = 512,
        provenance: bool = False,
    ) -> None:
        """``cache=None`` disables result caching; ``bus=None`` uses the
        nominal PCIe gen-1 preset (the paper's bus class) — pass a
        calibrated :class:`BusModel` for real projections.

        ``explorer`` selects the exploration path (see
        ``docs/EXPLORER.md``): ``fast`` (the fused scorer) or
        ``reference`` (the scalar oracle).  It never enters a cache key:
        both produce equal projections, so cached entries stay valid
        across the switch.  ``max_workers`` is the
        :meth:`project_batch` fan-out; one request always explores
        serially on the calling thread.

        A second, finer cache sits under the request cache: exploration
        results per *kernel*, keyed by :func:`repro.core.keys.kernel_key`
        (no bus), so a bus what-if skips every transformation-space
        search.  Pass ``kernel_cache`` to share one across engines, or
        ``kernel_cache_capacity=0`` to disable the tier.

        ``provenance=True`` attaches a
        :class:`~repro.obs.provenance.ProjectionProvenance` record to
        every freshly computed summary (see ``docs/OBSERVABILITY.md``).
        Provenance never enters the request fingerprint — cache keys are
        identical with it on or off; a cache hit serves whatever the
        storing engine recorded.
        """
        check_positive("max_workers", max_workers)
        if kernel_cache_capacity < 0:
            raise ValueError(
                f"kernel_cache_capacity must be >= 0, got "
                f"{kernel_cache_capacity}"
            )
        if explorer not in EXPLORERS:
            raise ValueError(
                f"unknown explorer {explorer!r}: expected 'fast' or "
                f"'reference'"
            )
        self._arch = arch or quadro_fx_5600()
        self._bus = bus or pcie_gen1_bus()
        self._space = space or TransformationSpace.default()
        self._cache = cache
        if kernel_cache is not None:
            self._kernel_cache: KernelProjectionCache | None = kernel_cache
        elif kernel_cache_capacity > 0:
            self._kernel_cache = KernelProjectionCache(kernel_cache_capacity)
        else:
            self._kernel_cache = None
        self._max_workers = max_workers
        self._explorer = explorer
        self._provenance = provenance
        self.metrics = metrics or ServiceMetrics()
        self._models: dict[str, GpuPerformanceModel] = {}

    # Defaults ------------------------------------------------------------
    @property
    def arch(self) -> GPUArchitecture:
        return self._arch

    @property
    def bus(self) -> BusModel:
        return self._bus

    @property
    def space(self) -> TransformationSpace:
        return self._space

    @property
    def cache(self) -> ProjectionCache | None:
        return self._cache

    @property
    def kernel_cache(self) -> KernelProjectionCache | None:
        return self._kernel_cache

    @property
    def provenance_enabled(self) -> bool:
        """Whether fresh summaries carry a provenance record.

        The surrogate front-end reads this to route provenance-requesting
        engines to the exact path in ``auto`` mode — provenance is an
        exact-pipeline artifact, there is nothing a learned estimate
        could honestly put in one.
        """
        return self._provenance

    # Keying --------------------------------------------------------------
    def fingerprint(self, request: ProjectionRequest) -> str:
        """Cache key: :func:`repro.core.keys.request_key` of the request,
        with this engine's defaults filled in."""
        return request_key(
            request.program,
            request.hints,
            request.arch or self._arch,
            request.bus or self._bus,
            request.space or self._space,
            request.batched_transfers,
        )

    # Serving -------------------------------------------------------------
    def project(self, request: ProjectionRequest) -> ProjectionResponse:
        """Serve one request, from cache when possible."""
        start = time.perf_counter()
        self.metrics.incr("requests")
        with trace_span(
            "project",
            category="service",
            program=request.program.name,
            request=request.request_id,
        ) as root:
            key = self.fingerprint(request)
            root.set(fingerprint=key)

            if self._cache is not None:
                with self.metrics.timer("cache_lookup"):
                    summary = self._cache.get(key)
                if summary is not None:
                    self.metrics.incr("cache_hits")
                    root.set(cached=True)
                    return ProjectionResponse(
                        request_id=request.request_id,
                        fingerprint=key,
                        summary=summary,
                        cached=True,
                        seconds=time.perf_counter() - start,
                        iterations=request.iterations,
                        cpu_seconds=request.cpu_seconds,
                    )
                self.metrics.incr("cache_misses")

            root.set(cached=False)
            projection = self._compute(request)
            provenance = (
                build_provenance(projection, request.bus or self._bus)
                if self._provenance
                else None
            )
            summary = summarize_projection(projection, provenance)
            if self._cache is not None:
                with self.metrics.timer("cache_store"):
                    self._cache.put(key, summary)
            return ProjectionResponse(
                request_id=request.request_id,
                fingerprint=key,
                summary=summary,
                cached=False,
                seconds=time.perf_counter() - start,
                iterations=request.iterations,
                cpu_seconds=request.cpu_seconds,
                projection=projection,
            )

    def project_batch(
        self, requests: Iterable[ProjectionRequest]
    ) -> list[ProjectionResponse]:
        """Serve many requests, fanning out across the worker pool.

        Responses come back in request order; each request explores
        serially on its worker thread.  Duplicate requests in one batch are
        deduplicated through the cache when one is attached (concurrent
        duplicates may both compute; both store the same entry, which is
        idempotent by construction).
        """
        batch: Sequence[ProjectionRequest] = list(requests)
        return map_ordered(
            self.project,
            batch,
            self._max_workers,
        )

    # Internals -----------------------------------------------------------
    def _model_for(self, arch: GPUArchitecture) -> GpuPerformanceModel:
        model = self._models.get(arch.name)
        if model is None or model.arch is not arch:
            model = GpuPerformanceModel(arch)
            self._models[arch.name] = model
        return model

    def _explore(
        self,
        program: ProgramSkeleton,
        model: GpuPerformanceModel,
        space: TransformationSpace,
    ) -> ProgramProjection:
        """Explore every kernel, reusing kernel-level cache entries.

        ``candidates_explored`` counts only searches actually run; a
        kernel served from the cache adds to ``kernel_cache_hits``
        instead.  The assembled :class:`ProgramProjection` is identical
        either way — cached entries equal what a fresh search would
        rebuild (the explorers are deterministic).
        """
        cache = self._kernel_cache
        if cache is None:
            projection = project_program(
                program, model, space, explorer=self._explorer
            )
            self.metrics.incr(
                "candidates_explored",
                sum(kp.search_width for kp in projection.kernels),
            )
            return projection

        kernels = []
        hits = 0
        for kernel, digest in zip(
            program.kernels, program.kernel_fingerprints()
        ):
            key = kernel_key(digest, model.arch, space)
            found = cache.get(key)
            if found is None:
                found = explore_kernel(
                    kernel, program, model, space, explorer=self._explorer
                )
                cache.put(key, found)
                self.metrics.incr("candidates_explored", found.search_width)
            else:
                hits += 1
            kernels.append(found)
        self.metrics.incr("kernel_cache_hits", hits)
        self.metrics.incr("kernel_cache_misses", len(kernels) - hits)
        return ProgramProjection(program=program.name, kernels=tuple(kernels))

    def close(self) -> None:
        """Release the process-wide thread pool.

        The pool is a module-level singleton, recreated lazily on next
        use.  The daemon calls this on drain; one-shot scripts can call
        it for a clean exit.  Idempotent.
        """
        shutdown_pool()

    def _compute(self, request: ProjectionRequest) -> Projection:
        """The GROPHECY++ pipeline (:mod:`repro.core.projector`), staged
        and instrumented, exploring through the kernel cache and
        planning through the process-wide plan store."""
        program = request.program
        arch = request.arch or self._arch
        bus = request.bus or self._bus
        space = request.space or self._space
        model = self._model_for(arch)

        with self.metrics.timer("explore"):
            kernels = self._explore(program, model, space)
        with self.metrics.timer("analyze"):
            plan = PLAN_STORE.plan(
                program, request.hints, request.batched_transfers
            )
        with self.metrics.timer("predict"):
            return integrate(program.name, kernels, plan, bus)
