"""The surrogate serving front-end: microseconds, or exactly right.

:class:`SurrogateEngine` wraps an exact
:class:`~repro.service.engine.ProjectionEngine` and answers
:class:`~repro.service.engine.ProjectionRequest`s through the learned
model whenever it is confident, falling back to the exact fused
pipeline otherwise.  Three serving modes:

- ``auto`` (default) — confidence-gated: the model answers when every
  kernel's classification margin clears the calibrated threshold and
  every feature row lies inside the trained domain; anything else (and
  any engine built with ``provenance=True`` — provenance is an exact
  artifact) runs the exact path;
- ``surrogate`` — forced: the model answers whenever it structurally
  can (matching arch/space, analyzable kernels), threshold or not;
- ``exact`` — the wrapped engine, untouched.

Every response carries a
:class:`~repro.obs.provenance.ServingProvenance` saying which path
answered and why; ``surrogate_hits`` / ``surrogate_fallbacks`` counters
land on the shared :class:`~repro.service.metrics.ServiceMetrics`.

The hot path is deliberately cache-shaped: a program's feature matrix,
model scores, winning labels, and acceptance verdict depend only on the
program + hints (the skeleton encodes the dataset; the model is pinned
to one arch and space), so they are computed once per program content
(keyed by :func:`~repro.core.keys.plan_key`, so a re-parsed copy of a
skeleton reuses its template) and kept in a bounded store; the transfer plan
inside a template comes from the process-wide plan store
(:data:`~repro.core.projector.PLAN_STORE`), so the exact path and the
surrogate plan each program once between them.  A steady-state query
pays a dictionary hit, four multiply-adds for the transfer time under
the query's bus, and response assembly — single-digit microseconds.
Exactly the what-if pattern the request cache serves, minus the search
that fills it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.keys import model_key, plan_key
from repro.core.projector import PLAN_STORE
from repro.obs.provenance import ServingProvenance
from repro.obs.trace import span
from repro.service.engine import (
    ProjectionEngine,
    ProjectionRequest,
    ProjectionResponse,
)
from repro.surrogate.features import kernel_feature_row
from repro.surrogate.model import SurrogateModel
from repro.surrogate.store import StaleModelError
from repro.transform.analysis import analyze_kernel
from repro.util.store import BoundedStore

SERVING_MODES = ("auto", "surrogate", "exact")

#: Prepared templates kept per engine (least recently used evicted
#: first).  The registry needs a few dozen; the rest of the budget goes
#: to inline skeletons, which are rarely asked about twice.
PREPARED_CAPACITY = 256


@dataclass(frozen=True)
class SurrogateEstimate:
    """The model's answer: predicted time + best mapping per kernel."""

    program: str
    kernel_seconds: float
    transfer_seconds: float
    #: (kernel name, winning mapping label) in program order.
    mappings: tuple[tuple[str, str], ...]
    #: Conformal band: the true log kernel time lay within ±band of the
    #: prediction for the calibration quantile of training queries.
    log_band: float

    def total_seconds(self, iterations: int = 1) -> float:
        return self.kernel_seconds * iterations + self.transfer_seconds


@dataclass(frozen=True)
class SurrogateResponse:
    """One served query: a surrogate estimate or an exact response."""

    request_id: str
    provenance: ServingProvenance
    seconds: float  # wall time spent serving this request
    iterations: int
    estimate: SurrogateEstimate | None = None
    response: ProjectionResponse | None = None

    def __post_init__(self) -> None:
        if (self.estimate is None) == (self.response is None):
            raise ValueError(
                "exactly one of estimate/response must be present"
            )

    @property
    def path(self) -> str:
        return self.provenance.path

    @property
    def confidence(self) -> float | None:
        return self.provenance.confidence

    @property
    def cached(self) -> bool:
        """Cache verdict (surrogate answers never touch the cache)."""
        return bool(self.response.cached) if self.response else False

    @property
    def total_seconds(self) -> float:
        if self.estimate is not None:
            return self.estimate.total_seconds(self.iterations)
        return self.response.total_seconds

    def to_dict(self) -> dict[str, Any]:
        """JSONL-ready record; exact fallbacks extend the engine record."""
        if self.response is not None:
            record = self.response.to_dict()
            record["path"] = self.provenance.path
            record["serving"] = self.provenance.to_dict()
            return record
        estimate = self.estimate
        return {
            "id": self.request_id,
            "ok": True,
            "path": self.provenance.path,
            "serving": self.provenance.to_dict(),
            "seconds": self.seconds,
            "iterations": self.iterations,
            "total_seconds": self.total_seconds,
            "kernel_seconds": estimate.kernel_seconds,
            "transfer_seconds": estimate.transfer_seconds,
            "log_band": estimate.log_band,
            "mappings": {name: label for name, label in estimate.mappings},
        }


class _Prepared:
    """Everything query-invariant about one (program, hints) pair."""

    __slots__ = (
        "error",
        "kernel_seconds",
        "mappings",
        "accepted",
        "confidence",
        "min_margin",
        "h2d_count",
        "h2d_bytes",
        "d2h_count",
        "d2h_bytes",
    )


class SurrogateEngine:
    """Confidence-gated surrogate serving over an exact engine."""

    def __init__(
        self,
        model: SurrogateModel,
        exact: ProjectionEngine,
        mode: str = "auto",
    ) -> None:
        if mode not in SERVING_MODES:
            raise ValueError(
                f"unknown serving mode {mode!r}: expected one of "
                f"{', '.join(SERVING_MODES)}"
            )
        arch_key, space_key = model_key(exact.arch, exact.space)
        if arch_key != model.arch_fingerprint:
            raise StaleModelError(
                f"surrogate model was trained for arch "
                f"{model.arch_name!r}, engine serves {exact.arch.name!r} "
                f"— retrain or switch engines"
            )
        if space_key != model.space_fingerprint:
            raise StaleModelError(
                "surrogate model's transformation space does not match "
                "the engine's — retrain"
            )
        self.model = model
        self.exact = exact
        self.mode = mode
        self.metrics = exact.metrics
        #: Optional shadow auditor (``repro.obs.audit.ShadowAuditor``):
        #: when set, every accepted surrogate answer is offered for
        #: off-hot-path exact re-scoring via ``auditor.consider``.
        self.auditor: Any = None
        configs = exact.space.configs()
        self._labels = tuple(config.label() for config in configs)
        #: Prepared templates by :func:`~repro.core.keys.plan_key`.
        self.prepared: BoundedStore[_Prepared] = BoundedStore(
            PREPARED_CAPACITY
        )

    # Preparation ---------------------------------------------------------
    def _prepare(self, request: ProjectionRequest) -> _Prepared:
        key = plan_key(
            request.program, request.hints, request.batched_transfers
        )
        prepared = self.prepared.get(key)
        if prepared is None:
            prepared = self._build(request)
            self.prepared.put(key, prepared)
        return prepared

    def _build(self, request: ProjectionRequest) -> _Prepared:
        program = request.program
        arch = self.exact.arch
        model = self.model
        prepared = _Prepared()
        prepared.error = None
        try:
            rows = np.vstack(
                [
                    kernel_feature_row(
                        analyze_kernel(
                            kernel,
                            program.array_map,
                            arch.strict_coalescing,
                        ),
                        arch,
                    )
                    for kernel in program.kernels
                ]
            )
        except ValueError as exc:
            # A kernel without a mappable parallel loop: the exact
            # explorer rejects it too, so route there for its error.
            prepared.error = exc
            return prepared
        log_pred, config_index, margins = model.predict_rows(rows)
        accepted = model.accepts(rows, margins)
        prepared.kernel_seconds = float(np.exp(log_pred).sum())
        prepared.mappings = tuple(
            (kernel.name, self._labels[index])
            for kernel, index in zip(program.kernels, config_index)
        )
        prepared.accepted = bool(accepted.all())
        prepared.min_margin = float(margins.min())
        prepared.confidence = float(
            model.confidence(np.asarray([prepared.min_margin]))[0]
        )
        plan = PLAN_STORE.plan(
            program, request.hints, request.batched_transfers
        )
        h2d = [t.bytes for t in plan.transfers if t.direction.short == "H2D"]
        d2h = [t.bytes for t in plan.transfers if t.direction.short == "D2H"]
        prepared.h2d_count = len(h2d)
        prepared.h2d_bytes = sum(h2d)
        prepared.d2h_count = len(d2h)
        prepared.d2h_bytes = sum(d2h)
        return prepared

    def _matches(self, request: ProjectionRequest) -> str | None:
        """The structural-mismatch reason for ``request``, or ``None``."""
        arch_key, space_key = model_key(
            request.arch or self.exact.arch,
            request.space or self.exact.space,
        )
        if arch_key != self.model.arch_fingerprint:
            return "arch_mismatch"
        if space_key != self.model.space_fingerprint:
            return "space_mismatch"
        return None

    # Serving -------------------------------------------------------------
    def project(
        self, request: ProjectionRequest, mode: str | None = None
    ) -> SurrogateResponse:
        """Serve one request through the gated surrogate."""
        start = time.perf_counter()
        mode = self.mode if mode is None else mode
        if mode not in SERVING_MODES:
            raise ValueError(
                f"unknown serving mode {mode!r}: expected one of "
                f"{', '.join(SERVING_MODES)}"
            )
        with span(
            "serve", category="surrogate", request=request.request_id
        ) as handle:
            response = self._project(request, mode, start)
            handle.set(
                path=response.provenance.path,
                reason=response.provenance.reason,
            )
        return response

    def _project(
        self, request: ProjectionRequest, mode: str, start: float
    ) -> SurrogateResponse:
        if mode == "exact":
            return self._fallback(request, "requested", None, start)
        if self.exact.provenance_enabled and mode == "auto":
            return self._fallback(request, "provenance", None, start)
        reason = self._matches(request)
        if reason is not None:
            return self._fallback(request, reason, None, start)
        prepared = self._prepare(request)
        if prepared.error is not None:
            return self._fallback(request, "unservable", None, start)
        if not prepared.accepted and mode != "surrogate":
            reason = (
                "low_confidence"
                if prepared.min_margin < self.model.threshold
                else "out_of_domain"
            )
            return self._fallback(
                request, reason, prepared.confidence, start
            )
        bus = request.bus or self.exact.bus
        transfer_seconds = (
            bus.h2d.alpha * prepared.h2d_count
            + bus.h2d.beta * prepared.h2d_bytes
            + bus.d2h.alpha * prepared.d2h_count
            + bus.d2h.beta * prepared.d2h_bytes
        )
        self.metrics.incr("surrogate_hits")
        response = SurrogateResponse(
            request_id=request.request_id,
            provenance=ServingProvenance(
                path="surrogate",
                reason="accepted" if prepared.accepted else "forced",
                confidence=prepared.confidence,
                model_arch=self.model.arch_name,
            ),
            seconds=time.perf_counter() - start,
            iterations=request.iterations,
            estimate=SurrogateEstimate(
                program=request.program.name,
                kernel_seconds=prepared.kernel_seconds,
                transfer_seconds=transfer_seconds,
                mappings=prepared.mappings,
                log_band=self.model.conformal_log_band,
            ),
        )
        if self.auditor is not None:
            # Two integer ops on the non-sampled path; sampled answers
            # are re-scored exactly on the audit thread, off this one.
            self.auditor.consider(request, response)
        return response

    def project_many(
        self,
        requests: Iterable[ProjectionRequest],
        mode: str | None = None,
    ) -> list[SurrogateResponse]:
        """Serve many requests (steady-state: microseconds apiece)."""
        batch: Sequence[ProjectionRequest] = list(requests)
        return [self.project(request, mode) for request in batch]

    def _fallback(
        self,
        request: ProjectionRequest,
        reason: str,
        confidence: float | None,
        start: float,
    ) -> SurrogateResponse:
        self.metrics.incr("surrogate_fallbacks")
        response = self.exact.project(request)
        return SurrogateResponse(
            request_id=request.request_id,
            provenance=ServingProvenance(
                path="exact",
                reason=reason,
                confidence=confidence,
                model_arch=self.model.arch_name,
            ),
            seconds=time.perf_counter() - start,
            iterations=request.iterations,
            response=response,
        )

    def close(self) -> None:
        """Release the wrapped engine's worker pools."""
        self.exact.close()


class SurrogateBatchAdapter:
    """Duck-typed stand-in for the engine in the JSONL batch runner.

    :func:`repro.service.jobs.project_parsed` calls
    ``engine.project(request)`` — this adapter serves it through the
    gated engine in its fixed mode, so ``python -m repro batch
    --surrogate`` writes records that carry the serving path.
    """

    def __init__(
        self, engine: SurrogateEngine, mode: str | None = None
    ) -> None:
        self.engine = engine
        self.mode = mode
        self.metrics = engine.metrics

    def project(self, request: ProjectionRequest) -> SurrogateResponse:
        return self.engine.project(request, self.mode)
