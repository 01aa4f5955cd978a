"""The oracle check: served answers against the scalar reference.

Exact answers are compared field for field — every float bitwise —
with a projection built from the paper-faithful scalar explorer
(``explorer="reference"``) and no caches of the program's own, and
their ``total_seconds`` with the reference summary scaled to the
record's own iterations.  The oracle keys its work on the request
records, never on the program's fingerprints: kernel exploration is
bus-independent, so each (program source, arch id) is explored once
and every transfer variant (bus, batched transfers) is priced through
the data-usage analyzer and the bus model.  Surrogate answers must say
``path: surrogate``; their mappings count toward agreement, never as
failures.

Sweep points are compared whole (``Projection`` equality, candidate
tables included) with the per-point ``GrophecyPlusPlus`` pipeline.

Everything here runs after the timed window and outside set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Sequence

from common import HERE, Verdict
from repro.core.prediction import Projection
from repro.core.projector import GrophecyPlusPlus
from repro.core.serialize import summarize_projection
from repro.datausage.analyzer import analyze_transfers
from repro.gpu.arch import GPUArchitecture
from repro.gpu.model import GpuPerformanceModel
from repro.pcie.model import BusModel
from repro.service import jobs
from repro.service.engine import ProjectionRequest
from repro.transform.explorer import ProgramProjection, project_program
from repro.transform.space import TransformationSpace


#: Record fields that never change the projection a record asks for.
SERVING_FIELDS = ("iterations", "mode")
#: Record fields that name the program; kernels depend on these only.
PROGRAM_FIELDS = ("workload", "dataset", "skeleton", "skeleton_file")


def identity(record: dict[str, Any]) -> str:
    """The oracle's own key for a record: its canonical JSON, serving
    fields left out.  Never a cache key of the program's."""
    return json.dumps(
        {k: v for k, v in record.items() if k not in SERVING_FIELDS},
        sort_keys=True,
    )


def program_identity(record: dict[str, Any]) -> str:
    """The program source plus the arch id the record names."""
    return json.dumps(
        [
            {k: record[k] for k in PROGRAM_FIELDS if k in record},
            record.get("arch"),
        ],
        sort_keys=True,
    )


@dataclass
class Answer:
    """One served answer, reduced to what the oracle compares.

    ``record`` is the request record as sent (iterations and mode
    included).  An exact answer carries the served ``summary`` dict and
    ``total_seconds``; a surrogate answer the kernel -> mapping label
    ``mappings``.
    """

    record: dict[str, Any]
    path: str
    summary: dict[str, Any] | None = None
    total_seconds: float | None = None
    mappings: dict[str, str] | None = None


class Oracle:
    """Reference answers under a serving surface's default arch and bus.

    Records are parsed with ``service.jobs.parse_request``; everything
    after the parse is the scalar reference pipeline, keyed on the
    records themselves, so an answer served under a wrong cache key
    still meets the reference for the record it was served for.
    """

    def __init__(
        self,
        arch: GPUArchitecture,
        bus: BusModel,
        space: TransformationSpace | None = None,
    ) -> None:
        self.arch = arch
        self.bus = bus
        self.space = space or TransformationSpace.default()
        self._requests: dict[str, ProjectionRequest] = {}
        self._kernels: dict[str, ProgramProjection] = {}
        self._summaries: dict[str, dict[str, Any]] = {}

    def request(self, record: dict[str, Any]) -> ProjectionRequest:
        """The parsed request, once per identity."""
        key = identity(record)
        found = self._requests.get(key)
        if found is None:
            body = {k: v for k, v in record.items() if k not in SERVING_FIELDS}
            found = jobs.parse_request(body, 0, HERE)
            self._requests[key] = found
        return found

    def kernels(self, record: dict[str, Any]) -> ProgramProjection:
        key = program_identity(record)
        found = self._kernels.get(key)
        if found is None:
            request = self.request(record)
            found = project_program(
                request.program,
                GpuPerformanceModel(request.arch or self.arch),
                self.space,
                explorer="reference",
            )
            self._kernels[key] = found
        return found

    def summary(self, record: dict[str, Any]) -> dict[str, Any]:
        """The reference summary dict for ``record``, once per identity."""
        key = identity(record)
        found = self._summaries.get(key)
        if found is not None:
            return found
        request = self.request(record)
        kernels = self.kernels(record)
        plan = analyze_transfers(request.program, request.hints)
        if request.batched_transfers:
            plan = plan.batched()
        bus = request.bus or self.bus
        per_transfer = tuple(bus.predict_plan_by_transfer(plan))
        projection = Projection(
            program=request.program.name,
            kernel_seconds=kernels.seconds,
            transfer_seconds=sum(per_transfer),
            plan=plan,
            per_transfer_seconds=per_transfer,
            kernels=kernels,
        )
        found = summarize_projection(projection).to_dict()
        self._summaries[key] = found
        return found

    def mappings(self, record: dict[str, Any]) -> dict[str, str]:
        return {
            kp.kernel: kp.best.config.label()
            for kp in self.kernels(record).kernels
        }

    def total_seconds(self, record: dict[str, Any]) -> float:
        """The reference end-to-end time at the record's iterations."""
        expected = self.summary(record)
        return (
            expected["kernel_seconds"] * int(record.get("iterations", 1))
            + expected["transfer_seconds"]
            + expected["setup_seconds"]
        )

    def check(self, answers: Sequence[Answer]) -> Verdict:
        """Compare every answer; each distinct record is built once."""
        verdict = Verdict()
        for answer in answers:
            verdict.answers += 1
            name = answer.record.get("workload", "inline skeleton")
            if answer.summary is not None:
                if (
                    answer.path == "exact"
                    and answer.summary == self.summary(answer.record)
                    and answer.total_seconds
                    == self.total_seconds(answer.record)
                ):
                    verdict.agreeing += 1
                    continue
                verdict.mismatches += 1
                shown = {
                    k: v for k, v in answer.record.items() if k != "skeleton"
                }
                verdict.notes.append(
                    f"exact answer for {name} {json.dumps(shown)} differs "
                    "from the reference"
                )
            elif answer.mappings is not None and answer.path == "surrogate":
                if answer.mappings == self.mappings(answer.record):
                    verdict.agreeing += 1
            else:
                verdict.mismatches += 1
                verdict.notes.append(
                    f"answer for {name} carries path {answer.path!r} "
                    "without the matching body"
                )
        return verdict


@dataclass
class SweepSample:
    """One point of one grid row, kept for the per-point comparison."""

    program: Any
    hints: Any
    arch: GPUArchitecture
    bus: BusModel
    projection: Projection


def check_sweep(
    samples: Sequence[SweepSample], count: int, seed: int
) -> Verdict:
    """Compare a seeded sample of sweep points with GrophecyPlusPlus."""
    verdict = Verdict()
    rng = random.Random(f"sweep-oracle/{seed}")
    chosen = rng.sample(list(samples), min(count, len(samples)))
    for sample in chosen:
        verdict.answers += 1
        expected = GrophecyPlusPlus(sample.arch, sample.bus).project(
            sample.program, sample.hints
        )
        if sample.projection == expected:
            verdict.agreeing += 1
        else:
            verdict.mismatches += 1
            verdict.notes.append(
                f"sweep point {sample.program.name} on {sample.arch.name} "
                "differs from the per-point pipeline"
            )
    return verdict
