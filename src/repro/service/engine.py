"""The projection engine: batched, cached, parallel GROPHECY++.

:class:`ProjectionEngine` serves :class:`ProjectionRequest`s — single or
batched — and returns structured :class:`ProjectionResponse`s.  Compared
to calling :class:`~repro.core.projector.GrophecyPlusPlus` directly it
adds:

- **content-addressed caching**: results are keyed by a stable
  fingerprint of skeleton + GPU architecture + bus model + explorer
  options, so repeated projections (parameter sweeps, what-if studies,
  the figure harness) cost a dictionary lookup instead of a
  transformation-space search;
- **parallelism**: independent kernels — or, for single-kernel
  programs, chunks of the transformation space — fan out across a
  worker pool with deterministic result ordering;
- **metrics**: every request feeds counters (requests, cache hits and
  misses, candidates explored) and per-stage timers (explore, analyze,
  predict).

The iteration count deliberately stays *out* of the cache key: a
projection is iteration-independent (kernel time scales, the transfer
set does not — paper Section IV-B), so asking for 1 and 500 iterations
of the same skeleton is one exploration and two cheap reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.core.prediction import Projection
from repro.core.serialize import ProjectionSummary, summarize_projection
from repro.datausage.analyzer import analyze_transfers
from repro.datausage.hints import AnalysisHints
from repro.gpu.arch import GPUArchitecture, quadro_fx_5600
from repro.gpu.model import GpuPerformanceModel
from repro.obs.provenance import build_provenance
from repro.obs.trace import span as trace_span
from repro.pcie.model import BusModel
from repro.pcie.presets import pcie_gen1_bus
from repro.service.cache import KernelProjectionCache, ProjectionCache
from repro.service.metrics import ServiceMetrics
from repro.service.parallel import (
    explore_kernel_parallel,
    map_ordered,
    project_kernels_parallel,
    shutdown_pool,
    shutdown_stream_pool,
)
from repro.skeleton.arrays import ArrayDecl
from repro.skeleton.kernel import KernelSkeleton
from repro.skeleton.program import ProgramSkeleton, kernel_fingerprint
from repro.transform.explorer import KernelProjection, ProgramProjection
from repro.transform.space import TransformationSpace
from repro.transform.stream import StreamingExplorer
from repro.util.fingerprint import stable_digest
from repro.util.validation import check_positive

#: Fingerprint schema version; bump when the key derivation changes.
KEY_FORMAT = 1


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
    """Serves projection requests with caching, fan-out, and metrics."""

    def __init__(
        self,
        arch: GPUArchitecture | None = None,
        bus: BusModel | None = None,
        space: TransformationSpace | None = None,
        cache: ProjectionCache | None = None,
        metrics: ServiceMetrics | None = None,
        max_workers: int = 1,
        explorer: str = "fast",
        prune: bool = False,
        kernel_cache: KernelProjectionCache | None = None,
        kernel_cache_capacity: int = 512,
        provenance: bool = False,
    ) -> None:
        """``cache=None`` disables result caching; ``bus=None`` uses the
        nominal PCIe gen-1 preset (the paper's bus class) — pass a
        calibrated :class:`BusModel` for real projections.

        ``explorer``/``prune`` select the exploration path (see
        ``docs/EXPLORER.md``): ``fast`` (vectorized, full candidate
        table), ``reference`` (the scalar oracle), or ``stream`` (the
        fused argmin-only scorer).  fast/reference never enter the
        *request* cache key: both produce the identical
        :class:`ProjectionSummary` (same best mapping, same seconds,
        same ``search_width`` — pruned configs still count toward the
        width), so cached entries stay valid across those switches.
        ``stream`` summaries carry argmin-only tables and are keyed
        separately (see :meth:`fingerprint`).

        A second, finer cache sits under the request cache: exploration
        results are kept per *kernel*, keyed by kernel content + arch +
        space (``prune`` included — it shapes the candidate tables; the
        bus deliberately excluded — kernel time is bus-independent).  A
        what-if study that re-projects the same program over PCIe
        generations misses the request cache (the bus is in its key) but
        skips every transformation-space search.  Pass ``kernel_cache``
        to share one across engines, or ``kernel_cache_capacity=0`` to
        disable the tier.

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
        if explorer not in ("fast", "reference", "stream"):
            raise ValueError(
                f"unknown explorer {explorer!r}: expected 'fast', "
                f"'reference', or 'stream'"
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
        self._prune = prune
        self._provenance = provenance
        self.metrics = metrics or ServiceMetrics()
        self._models: dict[str, GpuPerformanceModel] = {}
        #: arch name -> warm streaming explorer (``explorer="stream"``);
        #: keeps analyses, column grids, and the scratch arena hot across
        #: requests for the same architecture.
        self._stream_explorers: dict[str, StreamingExplorer] = {}

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
        """Cache key: everything that determines the projection result.

        Each input's own digest is memoized on the (immutable) object, so
        a repeated request — the same interned skeleton at another bus or
        iteration count — hashes only this small envelope.
        """
        arch = request.arch or self._arch
        bus = request.bus or self._bus
        space = request.space or self._space
        hints = request.hints or AnalysisHints.none()
        options: dict[str, Any] = {
            "batched_transfers": request.batched_transfers
        }
        if self._explorer == "stream":
            # fast/reference summaries are interchangeable (identical
            # best mapping, seconds, and search_width), so the explorer
            # stays out of their keys.  Stream summaries carry argmin-only
            # tables (search_width 1) — key them separately so neither
            # side serves the other's entries.
            options["explorer"] = "stream"
        return stable_digest(
            {
                "format": KEY_FORMAT,
                "skeleton": request.program.fingerprint(),
                "hints": hints.fingerprint(),
                "arch": arch.fingerprint(),
                "bus": bus.fingerprint(),
                "space": space.fingerprint(),
                "options": options,
            }
        )

    def _kernel_key(
        self,
        kernel: KernelSkeleton,
        array_map: Mapping[str, ArrayDecl],
        arch: GPUArchitecture,
        space: TransformationSpace,
    ) -> str:
        """Kernel-level cache key of one kernel of a program."""
        return self._kernel_digest_key(
            kernel_fingerprint(kernel, array_map), arch, space
        )

    def _kernel_digest_key(
        self,
        kernel_digest: str,
        arch: GPUArchitecture,
        space: TransformationSpace,
    ) -> str:
        """Kernel-level cache key: everything one exploration reads.

        Bus and explorer stay out — kernel time is bus-independent, and
        fast/reference produce bitwise-identical projections.  ``prune``
        is *in*: pruning moves configs between the candidate and pruned
        tables, so projections from different prune modes are distinct
        objects even though the best mapping agrees.  ``kernel_digest``
        is the kernel's :func:`~repro.skeleton.program.kernel_fingerprint`
        — for a whole program, read from the memoized
        :meth:`ProgramSkeleton.kernel_fingerprints`.
        """
        return stable_digest(
            {
                "format": KEY_FORMAT,
                "kernel": kernel_digest,
                "arch": arch.fingerprint(),
                "space": space.fingerprint(),
                "options": {"prune": self._prune},
            }
        )

    # Serving -------------------------------------------------------------
    def project(
        self, request: ProjectionRequest, workers: int | None = None
    ) -> ProjectionResponse:
        """Serve one request, from cache when possible.

        ``workers`` overrides the engine's intra-request fan-out (the
        batch runner passes 1: it parallelizes across requests instead).
        """
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
            projection = self._compute(
                request, self._max_workers if workers is None else workers
            )
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

        Responses come back in request order.  Within a batch the
        parallelism budget moves to the request level, so each request
        explores serially.  Duplicate requests in one batch are
        deduplicated through the cache when one is attached (concurrent
        duplicates may both compute; both store the same entry, which is
        idempotent by construction).
        """
        batch: Sequence[ProjectionRequest] = list(requests)
        return map_ordered(
            lambda request: self.project(request, workers=1),
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
        workers: int,
    ) -> ProgramProjection:
        """Explore every kernel, reusing kernel-level cache entries.

        ``candidates_explored`` counts only searches actually run; a
        kernel served from the cache adds to ``kernel_cache_hits``
        instead.  The assembled :class:`ProgramProjection` is identical
        either way — cached entries are the very objects a fresh search
        would rebuild (dataclass-equal by the explorer's determinism).

        The streaming explorer bypasses the kernel cache entirely: its
        projections are argmin-only (no candidate table), so they are
        not interchangeable with fast/reference entries, and the warm
        :class:`StreamingExplorer` already caches the expensive halves
        (analysis + column grids) itself.
        """
        if self._explorer == "stream":
            return self._explore_stream(program, model, space)
        cache = self._kernel_cache
        if cache is None:
            projection = project_kernels_parallel(
                program,
                model,
                space,
                max_workers=workers,
                explorer=self._explorer,
                prune=self._prune,
            )
            self.metrics.incr(
                "candidates_explored",
                sum(kp.search_width for kp in projection.kernels),
            )
            return projection

        keys = [
            self._kernel_digest_key(digest, model.arch, space)
            for digest in program.kernel_fingerprints()
        ]
        found: dict[int, KernelProjection] = {}
        for index, key in enumerate(keys):
            entry = cache.get(key)
            if entry is not None:
                found[index] = entry
        missing = [i for i in range(len(keys)) if i not in found]
        self.metrics.incr("kernel_cache_hits", len(found))
        self.metrics.incr("kernel_cache_misses", len(missing))

        if not missing:
            return ProgramProjection(
                program=program.name,
                kernels=tuple(found[i] for i in range(len(keys))),
            )
        if not found:
            # All kernels miss: the existing whole-program fan-out picks
            # the best split (per-kernel tasks, or chunked space for a
            # single-kernel program).
            projection = project_kernels_parallel(
                program,
                model,
                space,
                max_workers=workers,
                explorer=self._explorer,
                prune=self._prune,
            )
            self.metrics.incr(
                "candidates_explored",
                sum(kp.search_width for kp in projection.kernels),
            )
            for key, kernel_projection in zip(keys, projection.kernels):
                cache.put(key, kernel_projection)
            return projection

        # Partial hit: explore only the missing kernels.  A single miss
        # gets the whole worker budget as chunk parallelism; several
        # misses fan out one task per kernel.
        inner = workers if len(missing) == 1 else 1
        computed = map_ordered(
            lambda i: explore_kernel_parallel(
                program.kernels[i],
                program,
                model,
                space,
                max_workers=inner,
                explorer=self._explorer,
                prune=self._prune,
            ),
            missing,
            1 if len(missing) == 1 else workers,
        )
        for index, kernel_projection in zip(missing, computed):
            cache.put(keys[index], kernel_projection)
            self.metrics.incr(
                "candidates_explored", kernel_projection.search_width
            )
            found[index] = kernel_projection
        return ProgramProjection(
            program=program.name,
            kernels=tuple(found[i] for i in range(len(keys))),
        )

    def _explore_stream(
        self,
        program: ProgramSkeleton,
        model: GpuPerformanceModel,
        space: TransformationSpace,
    ) -> ProgramProjection:
        """One fused streaming pass per kernel, arena and caches warm."""
        explorer = self._stream_explorers.get(model.arch.name)
        if explorer is None or explorer.model is not model:
            explorer = StreamingExplorer(model)
            self._stream_explorers[model.arch.name] = explorer
        result = explorer.project_program(program, space)
        self.metrics.incr(
            "candidates_explored",
            sum(kernel.search_width for kernel in result.kernels),
        )
        return ProgramProjection(
            program=program.name,
            kernels=tuple(
                kernel.projection() for kernel in result.kernels
            ),
        )

    def close(self) -> None:
        """Release the process-wide worker pools.

        Shuts down the shared thread pool and the shared-memory
        streaming pool (both module-level singletons, recreated lazily
        on next use).  The daemon calls this on drain; one-shot scripts
        can call it for a clean exit.  Idempotent.
        """
        shutdown_pool()
        shutdown_stream_pool()

    def _compute(
        self, request: ProjectionRequest, workers: int
    ) -> Projection:
        """The GROPHECY++ pipeline, staged and instrumented."""
        program = request.program
        arch = request.arch or self._arch
        bus = request.bus or self._bus
        space = request.space or self._space
        model = self._model_for(arch)

        with self.metrics.timer("explore"):
            kernels = self._explore(program, model, space, workers)
        with self.metrics.timer("analyze"):
            with trace_span(
                "transfer-planning", program=program.name
            ) as planning:
                plan = analyze_transfers(program, request.hints)
                if request.batched_transfers:
                    plan = plan.batched()
                planning.set(
                    transfers=plan.transfer_count,
                    bytes=plan.total_bytes,
                )
        with self.metrics.timer("predict"):
            with trace_span("integrate", program=program.name):
                per_transfer = tuple(bus.predict_plan_by_transfer(plan))
                return Projection(
                    program=program.name,
                    kernel_seconds=kernels.seconds,
                    transfer_seconds=sum(per_transfer),
                    plan=plan,
                    per_transfer_seconds=per_transfer,
                    kernels=kernels,
                )
